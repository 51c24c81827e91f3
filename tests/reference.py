"""Test oracles: full-data references that the package's fast paths are checked against.

The Gram matrix over the pooled samples and its parameterization
T(z) = alpha . K[z, :]; the Donsker-Varadhan loss
g = log mean_j exp(T(y_j)) - mean_i T(x_i), whose negative is the estimate,
its gradient on every row, and its penalized minimizer over the norm ball; a
MINE forward pass; and the JSON schema of a benchmark report.  Nothing in ``kernelkl`` calls them.
"""

from dataclasses import dataclass

import numpy as np

from kernelkl import InvalidInputError
from kernelkl.benchmark import CSV_COLUMNS, KNOWN_ESTIMATORS
from kernelkl.kernels import DISTANCE_BLOCK_ROWS, as_sample_pair, pivoted_cholesky, sq_distances
from kernelkl.mine import _hidden, _layers
from kernelkl.optimize import dv_value_and_weights, run_primal


@dataclass(frozen=True)
class GramMatrix:
    """Pairwise kernel evaluations over the pooled samples.

    Rows 1..n correspond to X-samples, rows n+1..n+m to Y-samples.
    Entries lie in (0, 1] with a unit diagonal and the matrix is symmetric PSD.
    """

    entries: np.ndarray
    n: int
    m: int

    @property
    def size(self):
        return self.n + self.m


def rbf_kernel(x, y, spec):
    """Evaluate exp(-||x - y||^2 / (2 sigma^2)); always in (0, 1], symmetric."""
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise InvalidInputError("rbf_kernel inputs must be finite")
    if x.shape != y.shape:
        raise InvalidInputError(f"dimension mismatch: {x.shape} vs {y.shape}")
    sq = float(np.sum((x - y) ** 2))
    return float(np.exp(-sq / (2.0 * spec.bandwidth**2)))


def kernel_values(A, B, spec, out=None):
    """exp(-||a - b||^2 / (2 sigma^2)) for every row a of A and b of B, as a len(A) x len(B) array."""
    out = sq_distances(A, B, out=out)
    out /= -2.0 * spec.bandwidth**2
    return np.exp(out, out=out)


def build_gram(X, Y, spec):
    """Kernel matrix over the pooled samples Z = X ++ Y (X rows first).

    The distances are written into the matrix DISTANCE_BLOCK_ROWS rows at a
    time and turned into kernel values in place, so no second (n+m)^2 array
    is made.
    """
    X, Y = as_sample_pair(X, Y)
    pooled = X.shape[0] + Y.shape[0]
    Z = np.vstack([X, Y])
    entries = np.empty((pooled, pooled))
    for start in range(0, pooled, DISTANCE_BLOCK_ROWS):
        block = slice(start, start + DISTANCE_BLOCK_ROWS)
        kernel_values(Z[block], Z, spec, out=entries[block])
    # (a - b)^2 == (b - a)^2 in floating point, so the entries come out
    # exactly symmetric with a unit diagonal
    return GramMatrix(entries=entries, n=X.shape[0], m=Y.shape[0])


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


def penalized_optimum(mean_phi_x, PhiY, penalty_weight, norm_budget, tol=1e-10, max_iter=10**6):
    """The minimizer over ||beta|| <= norm_budget of g(beta) + penalty_weight ||beta||^2, with g on rows PhiY.

    Projected gradient descent in float64 at step 1 / L, where L = max_j
    ||phi_j||^2 + 2 penalty_weight bounds the Hessian, until the Frank-Wolfe
    gap <grad, beta> + M ||grad|| is at most tol.  Returns (beta, gap); the
    penalized objective at beta is within gap of the minimum.
    """
    PhiX = np.asarray(mean_phi_x, dtype=float)[None]
    PhiY = np.asarray(PhiY, dtype=float)
    step = 1.0 / (float(np.max(np.sum(PhiY * PhiY, axis=1))) + 2.0 * penalty_weight)
    beta = np.zeros(PhiY.shape[1])
    for _ in range(max_iter):
        grad = primal_gradient(beta, PhiX, PhiY, penalty_weight=penalty_weight)
        gap = float(grad @ beta) + norm_budget * float(np.linalg.norm(grad))
        if gap <= tol:
            return beta, gap
        beta = beta - step * grad
        beta *= min(1.0, norm_budget / float(np.linalg.norm(beta)))
    raise AssertionError(f"no gap below {tol} in {max_iter} steps: {gap}")


def dual_objective(alpha, K):
    """g at alpha for the Gram parameterization: ``primal_objective`` on the Gram rows."""
    return primal_objective(alpha, K.entries[: K.n], K.entries[K.n :])


def dual_gradient(alpha, K, penalty_weight=0.0):
    """Gradient of g(alpha) + penalty_weight * alpha' K alpha; its penalty differentiates to 2 K alpha, not 2 alpha."""
    grad = primal_gradient(alpha, K.entries[: K.n], K.entries[K.n :])
    if penalty_weight:
        grad = grad + 2.0 * penalty_weight * (K.entries @ alpha)
    return grad


def run_dual(K, cfg):
    """Optimize the Gram parameterization; returns (alpha, OptimizationTrace).

    ``run_primal`` on the exact-kernel features of the pivoted Cholesky
    factor K = L L' (``kernels.pivoted_cholesky``): the witness on the
    samples is L gamma, with RKHS norm ||gamma||.  alpha is nonzero only on
    the pivots P, alpha_P = L_PP^-T gamma, so K alpha = L gamma and
    alpha' K alpha = ||gamma||^2.  Deterministic given cfg.seed.
    """
    L, pivots = pivoted_cholesky(lambda i: K.entries[:, i], K.size, K.size)
    gamma, trace = run_primal(L[: K.n].mean(axis=0), L[K.n :], cfg)
    alpha = np.zeros(K.size)
    alpha[pivots] = np.linalg.solve(L[pivots].T, gamma)
    return alpha, trace


def mine_forward(vec, z):
    """Evaluate the MINE network of parameter vector ``vec`` at one D-vector, or row-wise on an n x D matrix."""
    z = np.asarray(z, dtype=float)
    single = z.ndim == 1
    if single:
        z = z[None, :]
    # a network on D inputs and h hidden units has h (D + 2) + 1 parameters
    if (vec.size - 1) % (z.shape[1] + 2):
        raise InvalidInputError(f"{vec.size} parameters make no network on {z.shape[1]} inputs")
    _, _, v, c = _layers(vec, z.shape[1])
    out = _hidden(vec, z) @ v + c
    return float(out[0]) if single else out


REPORT_JSON_SCHEMA = {
    "type": "object",
    "required": ["schema_version", "rows"],
    "properties": {
        "schema_version": {"const": 1},
        "rows": {
            "type": "array",
            "items": {
                "type": "object",
                "required": list(CSV_COLUMNS) + ["trials", "failures"],
                "properties": {
                    "estimator": {"enum": list(KNOWN_ESTIMATORS)},
                    "dim": {"type": "integer", "minimum": 1},
                    "rho": {"type": "number"},
                    "true_mi": {"type": "number", "minimum": 0},
                    "bias": {"type": "number"},
                    "rmse": {"type": "number", "minimum": 0},
                    "variance": {"type": "number", "minimum": 0},
                    "mean_runtime_seconds": {"type": "number", "minimum": 0},
                    "trials": {"type": "integer", "minimum": 2},
                    "failures": {"type": "integer", "minimum": 0},
                    "failed": {"type": "boolean"},
                },
            },
        },
    },
}
