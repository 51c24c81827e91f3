"""Projected minibatch SGD over the Donsker-Varadhan loss.

One driver, ``ascend``, serves the kernel witness and the MINE network.  Each
caller passes a step that draws its minibatch from the driver's seeded
generator, takes one gradient ascent step on the divergence estimate
(equivalently a descent step on the penalized loss), projects back into its
feasible set if it has one, and returns the incoming iterate's divergence on
that minibatch (available for free from the gradient computation).  The
kernel witness is linear in its feature weights, so the P term of the bound
is the weights dotted with the P-side mean (the kernel mean embedding); it is
computed once, exactly, and only the log-mean-exp term over Q is sampled.
Both kernel parameterizations run the one feature-space loop, ``run_primal``:
the Gram parameterization on the rows of a pivoted Cholesky factor of K.  Its
Q features may be stored or mapped from the samples minibatch by minibatch
(``kernels.FeatureRows``); both take the same draws from the generator.

The stopping rule compares successive values of a moving average over the
last ``CONVERGENCE_WINDOW`` = 10 minibatch values and requires the difference
to stay below ``gamma`` for a full window of consecutive steps; in the
full-batch limit this reduces to comparing successive exact values.  The
returned scalar is the mean over the final window rather than the last
iterate, which damps minibatch noise.
"""

import math
from dataclasses import dataclass, replace

import numpy as np
from .errors import InvalidInputError, NumericalFailureError
from .kernels import FeatureRows, pivoted_cholesky
from .objective import dv_value_and_weights

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
    estimate: float


def _require_finite_norm(norm):
    """Raise NumericalFailureError if a weight norm overflowed.

    Rescaling by norm_budget / inf would zero the weights silently, or give
    0 * inf = NaN where a weight is infinite.
    """
    if not math.isfinite(norm):
        raise NumericalFailureError("the weight norm is not finite after a gradient step; step_size is too large")


def project_dual(alpha, K, norm_budget):
    """Rescale alpha radially so alpha' K alpha <= norm_budget^2.

    Radial rescaling, not the exact metric projection; feasible inputs pass
    through unchanged.
    """
    q = float(alpha @ (K.entries @ alpha))
    if not q <= norm_budget**2:  # NaN too
        _require_finite_norm(q)
        alpha = alpha * (norm_budget / np.sqrt(q))
    return alpha


def project_primal(beta, norm_budget):
    """Rescale beta radially so ||beta|| <= norm_budget."""
    nrm = float(np.linalg.norm(beta))
    if not nrm <= norm_budget:  # NaN too
        _require_finite_norm(nrm)
        beta = beta * (norm_budget / nrm)
    return beta


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


def run_primal(mean_phi_x, PhiY, cfg):
    """Optimize the feature parameterization, O(minibatch * d) per step; returns (beta, OptimizationTrace).

    ``mean_phi_x`` is the mean feature vector of the P-samples (see
    ``kernels.mean_feature_map``, or the P rows of a pivoted Cholesky factor)
    and ``PhiY`` the m x d Q-sample features: a stored array, or a
    ``kernels.FeatureRows`` that maps each minibatch from the samples when it
    is drawn.  Both are indexed with the same draws, so both give the same
    bits wherever ``FeatureRows`` reproduces the stored rows (see there); a
    full batch maps a ``FeatureRows`` once, before the first step.
    """
    if not isinstance(PhiY, FeatureRows):
        PhiY = np.asarray(PhiY)
    mean_phi_x = np.asarray(mean_phi_x)
    if len(PhiY.shape) != 2 or mean_phi_x.shape != PhiY.shape[1:]:
        raise InvalidInputError("mean_phi_x must be a d-vector matching the columns of the m x d PhiY")
    # beta matches the feature dtype so float32 inputs avoid per-step upcasts
    dtype = np.result_type(PhiY.dtype, np.float32)
    mean_phi_x = mean_phi_x.astype(dtype, copy=False)
    m = PhiY.shape[0]
    if cfg.minibatch >= m:
        PhiY = PhiY[:]  # every step uses every row: a FeatureRows is mapped once, an array viewed

    def step(beta, rng):
        # Q rows drawn with replacement; every row, uncopied, once the batch covers all m
        Py = PhiY if cfg.minibatch >= m else PhiY[rng.integers(0, m, size=cfg.minibatch)]
        kl, w = dv_value_and_weights(float(mean_phi_x @ beta), Py @ beta)
        grad = Py.T @ w - mean_phi_x
        if cfg.penalty_weight:
            grad = grad + 2.0 * cfg.penalty_weight * beta
        return project_primal(beta - cfg.step_size * grad, cfg.norm_budget), kl

    # an overflowing step is reported by the projection, not by numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        return ascend(step, np.zeros(PhiY.shape[1], dtype=dtype), cfg)


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
