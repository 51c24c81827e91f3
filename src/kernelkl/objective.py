"""Donsker-Varadhan loss in feature form, and in Gram-row form through it.

Every witness function T is scored against samples from P and Q through the
same functional

    g = log( mean_j exp(T(y_j)) ) - mean_i T(x_i)

whose negative is the KL lower bound being maximized.  In the primal form
T(z) = beta . phi(z); the dual form T(z) = alpha . K[z, :] is the primal form
on the Gram rows; the MINE baseline uses a small network.
``dv_value_and_weights`` is the one place the bound and the gradient weights of
its Q term are computed: each witness supplies its P-side mean and Q-side
scores, and one max-shifted exp pass keeps large scores from overflowing.  The
objective (g, a float) and gradient functions are the full-data references the
optimizers are tested against.
"""

import numpy as np

from .errors import InvalidInputError


def dv_value_and_weights(p_mean, q_scores):
    """Bound value p_mean - log mean_j exp(q_j) and its softmax weights over q.

    The weights are the gradient of the log-mean-exp term with respect to the
    scores.  One exp pass serves both, and float32 scores stay float32.
    """
    mx = float(np.max(q_scores))
    e = np.exp(q_scores - mx)
    total = float(e.sum())
    return p_mean - (mx + float(np.log(total / q_scores.size))), e / total


def log_mean_exp(values):
    """log((1/m) sum exp(v_i)) via max-shift; exact for constant vectors."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise InvalidInputError("log_mean_exp of an empty vector")
    if not np.all(np.isfinite(values)):
        raise InvalidInputError("log_mean_exp requires finite values")
    value, _ = dv_value_and_weights(0.0, values)
    # 0.0 - value, not -value: a zero result stays +0.0
    return 0.0 - value


def _check_primal_dims(beta, PhiX, PhiY):
    beta = np.asarray(beta, dtype=float)
    if PhiX.ndim != 2 or PhiY.ndim != 2 or PhiX.shape[1] != PhiY.shape[1]:
        raise InvalidInputError("feature matrices must share one feature dimension")
    if beta.shape != (PhiX.shape[1],):
        raise InvalidInputError(f"beta has shape {beta.shape}, expected ({PhiX.shape[1]},)")
    return beta


def primal_objective(beta, PhiX, PhiY):
    """g at beta for the feature parameterization T(z) = beta . phi(z)."""
    beta = _check_primal_dims(beta, PhiX, PhiY)
    return log_mean_exp(PhiY @ beta) - float(np.mean(PhiX @ beta))


def primal_gradient(beta, PhiX, PhiY, penalty_weight=0.0):
    """Gradient of g(beta) + penalty_weight * ||beta||^2.

    The log-mean-exp term differentiates to an average of the Q-rows under
    the weights of ``dv_value_and_weights``, which is algebraically equal to
    the per-coordinate quotient form but immune to overflow.
    """
    beta = _check_primal_dims(beta, PhiX, PhiY)
    _, w = dv_value_and_weights(0.0, PhiY @ beta)
    grad = PhiY.T @ w - np.mean(PhiX, axis=0)
    if penalty_weight:
        grad = grad + 2.0 * penalty_weight * beta
    return grad


def dual_objective(alpha, K):
    """g at alpha for the Gram parameterization: ``primal_objective`` on the Gram rows."""
    return primal_objective(alpha, K.entries[: K.n], K.entries[K.n :])


def dual_gradient(alpha, K, penalty_weight=0.0):
    """Gradient of g(alpha) + penalty_weight * alpha' K alpha; its penalty differentiates to 2 K alpha, not 2 alpha."""
    grad = primal_gradient(alpha, K.entries[: K.n], K.entries[K.n :])
    if penalty_weight:
        grad = grad + 2.0 * penalty_weight * (K.entries @ alpha)
    return grad
