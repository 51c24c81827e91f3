"""Donsker-Varadhan loss in dual (Gram-row) and primal (feature) form.

Every witness function T is scored against samples from P and Q through the
same functional

    g = log( mean_j exp(T(y_j)) ) - mean_i T(x_i)

whose negative is the KL lower bound being maximized.  In the dual form
T(z) = alpha . K[z, :]; in the primal form T(z) = beta . phi(z); the MINE
baseline uses a small network.  ``dv_value_and_weights`` is the one place the
bound and the gradient weights of its Q term are computed: each witness supplies
only its P-side mean and its Q-side scores, and one max-shifted exp pass over
the scores keeps large values from overflowing.  The objective and gradient
functions below are the full-data reference forms the optimizers are tested
against.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError


@dataclass(frozen=True)
class DualWeights:
    """Coefficients over the pooled Gram rows, with alpha' K alpha <= norm_budget^2."""

    alpha: np.ndarray
    norm_budget: float


@dataclass(frozen=True)
class PrimalWeights:
    """Coefficients over feature coordinates, with ||beta|| <= norm_budget."""

    beta: np.ndarray
    norm_budget: float


@dataclass(frozen=True)
class ObjectiveValue:
    """Loss g to minimize and the divergence estimate -g it implies."""

    g: float

    @property
    def kl_estimate(self):
        return -self.g


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


def _check_dual_dims(alpha, K):
    alpha = np.asarray(alpha, dtype=float)
    if alpha.shape != (K.size,):
        raise InvalidInputError(f"alpha has shape {alpha.shape}, expected ({K.size},)")
    return alpha


def dual_objective(alpha, K):
    """Evaluate g at alpha for the Gram parameterization T(z) = alpha . K[z, :]."""
    alpha = _check_dual_dims(alpha, K)
    scores = K.entries @ alpha
    g = log_mean_exp(scores[K.n :]) - float(np.mean(scores[: K.n]))
    return ObjectiveValue(g=g)


def dual_gradient(alpha, K, penalty_weight=0.0):
    """Gradient of g(alpha) + penalty_weight * alpha' K alpha.

    The log-mean-exp term differentiates to an average of the Q-rows of K
    under the weights of ``dv_value_and_weights``, which is algebraically
    equal to the per-coordinate quotient form but immune to overflow.
    """
    alpha = _check_dual_dims(alpha, K)
    Kalpha = K.entries @ alpha
    _, w = dv_value_and_weights(0.0, Kalpha[K.n :])
    grad = K.entries[K.n :].T @ w - np.mean(K.entries[: K.n], axis=0)
    if penalty_weight:
        grad = grad + 2.0 * penalty_weight * Kalpha
    return grad


def _check_primal_dims(beta, PhiX, PhiY):
    beta = np.asarray(beta, dtype=float)
    if PhiX.ndim != 2 or PhiY.ndim != 2 or PhiX.shape[1] != PhiY.shape[1]:
        raise InvalidInputError("feature matrices must share one feature dimension")
    if beta.shape != (PhiX.shape[1],):
        raise InvalidInputError(f"beta has shape {beta.shape}, expected ({PhiX.shape[1]},)")
    return beta


def primal_objective(beta, PhiX, PhiY):
    """Evaluate g at beta for the feature parameterization T(z) = beta . phi(z)."""
    beta = _check_primal_dims(beta, PhiX, PhiY)
    g = log_mean_exp(PhiY @ beta) - float(np.mean(PhiX @ beta))
    return ObjectiveValue(g=g)


def primal_gradient(beta, PhiX, PhiY, penalty_weight=0.0):
    """Gradient of g(beta) + penalty_weight * ||beta||^2, weighted as in ``dual_gradient``."""
    beta = _check_primal_dims(beta, PhiX, PhiY)
    _, w = dv_value_and_weights(0.0, PhiY @ beta)
    grad = PhiY.T @ w - np.mean(PhiX, axis=0)
    if penalty_weight:
        grad = grad + 2.0 * penalty_weight * beta
    return grad
