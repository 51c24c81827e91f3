"""Projected minibatch SGD over the Donsker-Varadhan loss.

One driver, ``ascend``, serves both kernel parameterizations and the MINE
network.  Each caller passes a step that draws its minibatch from the
driver's seeded generator, takes one gradient ascent step on the divergence
estimate (equivalently a descent step on the penalized loss), projects back
into its feasible set if it has one, and returns the incoming iterate's
divergence on that minibatch (available for free from the gradient
computation).  Both kernel witnesses are linear in their weights, so the P
term of the bound is the weights dotted with the P-side mean (the kernel mean
embedding); it is computed once, exactly, and only the log-mean-exp term over
Q is sampled.

The stopping rule compares successive values of a moving average over the
last ``CONVERGENCE_WINDOW`` = 10 minibatch values and requires the difference
to stay below ``gamma`` for a full window of consecutive steps; in the
full-batch limit this reduces to comparing successive exact values.  The
returned scalar is the mean over the final window rather than the last
iterate, which damps minibatch noise.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np
from .errors import InvalidInputError, NumericalFailureError
from .objective import DualWeights, PrimalWeights, dv_value_and_weights

DEFAULT_NORM_BUDGET = 10.0
CONVERGENCE_WINDOW = 10


@dataclass(frozen=True)
class OptimizerConfig:
    step_size: float = 0.5
    max_iter: int = 500
    gamma: float = 1e-5
    minibatch: int = 512
    norm_budget: float = DEFAULT_NORM_BUDGET
    penalty_weight: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        # chained comparisons are False for NaN, so NaN and inf are rejected too
        if self.max_iter <= 0 or self.minibatch <= 0:
            raise InvalidInputError("max_iter and minibatch must be positive")
        if not all(0 < x < np.inf for x in (self.step_size, self.gamma, self.norm_budget)):
            raise InvalidInputError("step_size, gamma, and norm_budget must be finite and positive")
        if not 0 <= self.penalty_weight < np.inf:
            raise InvalidInputError("penalty_weight must be finite and nonnegative")

    def with_seed(self, seed):
        return replace(self, seed=seed)


@dataclass(frozen=True)
class OptimizationTrace:
    """Per-iteration divergence values plus how and when the loop exited."""

    kl_values: np.ndarray
    converged: bool
    iterations: int
    estimate: float = field(default=float("nan"))


def _require_finite_norm(norm):
    """Raise NumericalFailureError if a weight norm overflowed.

    Rescaling by norm_budget / inf would zero the weights silently, or give
    0 * inf = NaN where a weight is infinite.
    """
    if not math.isfinite(norm):
        raise NumericalFailureError("the weight norm is not finite after a gradient step; step_size is too large")


def _rescale_dual(alpha, k_alpha, norm_budget):
    """Rescale alpha and its product K alpha by one factor so alpha' K alpha <= norm_budget^2."""
    q = float(alpha @ k_alpha)
    if not q <= norm_budget**2:  # NaN too
        _require_finite_norm(q)
        scale = norm_budget / np.sqrt(q)
        alpha = alpha * scale
        k_alpha = k_alpha * scale
    return alpha, k_alpha


def project_dual(alpha, K, norm_budget):
    """Rescale alpha radially so alpha' K alpha <= norm_budget^2.

    Radial rescaling, not the exact metric projection; feasible inputs pass
    through unchanged.
    """
    return _rescale_dual(alpha, K.entries @ alpha, norm_budget)[0]


def project_primal(beta, norm_budget):
    """Rescale beta radially so ||beta|| <= norm_budget."""
    nrm = float(np.linalg.norm(beta))
    if not nrm <= norm_budget:  # NaN too
        _require_finite_norm(nrm)
        beta = beta * (norm_budget / nrm)
    return beta


def _q_rows(rng, m, minibatch):
    """Minibatch indices into the m Q-samples, drawn with replacement.

    ``None`` once the minibatch covers all m, so the step reuses the whole
    arrays without copying.
    """
    return None if minibatch >= m else rng.integers(0, m, size=minibatch)


def ascend(step, weights, cfg):
    """Call ``step(weights, rng) -> (weights, value)`` until the stall rule fires or cfg.max_iter.

    ``rng`` is seeded from cfg.seed.  Returns the final weights and an
    OptimizationTrace; a non-finite value raises NumericalFailureError.
    """
    rng = np.random.default_rng(cfg.seed)
    kl_values = []
    prev = None
    stall = 0
    for it in range(1, cfg.max_iter + 1):
        weights, kl = step(weights, rng)
        if not np.isfinite(kl):
            raise NumericalFailureError(f"non-finite objective at iteration {it}", iteration=it)
        kl_values.append(kl)
        smoothed = float(np.mean(kl_values[-CONVERGENCE_WINDOW:]))
        stall = stall + 1 if prev is not None and abs(smoothed - prev) <= cfg.gamma else 0
        prev = smoothed
        if stall >= CONVERGENCE_WINDOW:
            break
    kl_values = np.asarray(kl_values)
    estimate = float(np.mean(kl_values[-CONVERGENCE_WINDOW:]))
    trace = OptimizationTrace(
        kl_values=kl_values, converged=stall >= CONVERGENCE_WINDOW, iterations=it, estimate=estimate
    )
    return weights, trace


def run_dual(K, cfg):
    """Optimize the Gram parameterization; returns (DualWeights, OptimizationTrace).

    Initialization is alpha = 0 (feasible, divergence 0); deterministic given
    cfg.seed.  Steps carry the state (alpha, K alpha): one product with K per
    step serves the Q scores, the penalty gradient and the radial projection
    of the next step.
    """
    n = K.n
    mean_kx = K.entries[:n].mean(axis=0)

    def step(state, rng):
        alpha, k_alpha = state
        iy = _q_rows(rng, K.m, cfg.minibatch)
        rows = slice(n, None) if iy is None else n + iy
        kl, w = dv_value_and_weights(float(mean_kx @ alpha), k_alpha[rows])
        grad = K.entries[rows].T @ w - mean_kx
        if cfg.penalty_weight:
            grad = grad + 2.0 * cfg.penalty_weight * k_alpha
        alpha = alpha - cfg.step_size * grad
        return _rescale_dual(alpha, K.entries @ alpha, cfg.norm_budget), kl

    # an overflowing step is reported by the projection, not by numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        (alpha, _), trace = ascend(step, (np.zeros(K.size), np.zeros(K.size)), cfg)
    return DualWeights(alpha=alpha, norm_budget=cfg.norm_budget), trace


def run_primal(mean_phi_x, PhiY, cfg):
    """Optimize the feature parameterization; per-step cost is O(minibatch * d).

    ``mean_phi_x`` is the mean feature vector of the P-samples (see
    ``kernels.mean_feature_map``) and ``PhiY`` the m x d Q-sample features.
    """
    PhiY = np.asarray(PhiY)
    mean_phi_x = np.asarray(mean_phi_x)
    if PhiY.ndim != 2 or mean_phi_x.shape != PhiY.shape[1:]:
        raise InvalidInputError("mean_phi_x must be a d-vector matching the columns of the m x d PhiY")
    # beta matches the feature dtype so float32 inputs avoid per-step upcasts
    dtype = np.result_type(PhiY.dtype, np.float32)
    mean_phi_x = mean_phi_x.astype(dtype, copy=False)

    def step(beta, rng):
        iy = _q_rows(rng, PhiY.shape[0], cfg.minibatch)
        Py = PhiY if iy is None else PhiY[iy]
        kl, w = dv_value_and_weights(float(mean_phi_x @ beta), Py @ beta)
        grad = Py.T @ w - mean_phi_x
        if cfg.penalty_weight:
            grad = grad + 2.0 * cfg.penalty_weight * beta
        return project_primal(beta - cfg.step_size * grad, cfg.norm_budget), kl

    # an overflowing step is reported by the projection, not by numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        beta, trace = ascend(step, np.zeros(PhiY.shape[1], dtype=dtype), cfg)
    return PrimalWeights(beta=beta, norm_budget=cfg.norm_budget), trace
