"""Projected minibatch SGD over the Donsker-Varadhan loss.

Every witness function T is scored against samples from P and Q through the
bound mean_i T(x_i) - log mean_j exp(T(y_j)).  ``dv_value_and_weights`` is
the one place the bound and the gradient weights of its Q term are computed:
each witness supplies its P-side mean and Q-side scores, and one max-shifted
exp pass keeps large scores from overflowing.

One driver, ``ascend``, serves the kernel witness and the MINE network.  Each
caller passes a step that draws its minibatch from the driver's seeded
generator, takes one gradient ascent step on the divergence estimate
(equivalently a descent step on the penalized loss), projects back into its
feasible set if it has one, and returns the incoming iterate's divergence on
that minibatch (available for free from the gradient computation).  The
kernel witness is linear in its feature weights, so the P term of the bound
is the weights dotted with the P-side mean (the kernel mean embedding); it is
computed once, exactly, and only the log-mean-exp term over Q is sampled.
Both kernel modes run the one feature-space loop, ``run_primal``: dual mode
on the rows of a pivoted Cholesky factor of K over every pooled sample,
primal mode on kernel rows against landmarks, whitened inside the step.  Q
kernel rows may be stored or made from the samples minibatch by minibatch
(``kernels.KernelRows``); both take the same draws from the generator.

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
from .kernels import KernelRows

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


def dv_value_and_weights(p_mean, q_scores):
    """Bound value p_mean - log mean_j exp(q_j) and its softmax weights over q.

    The weights are the gradient of the log-mean-exp term with respect to the
    scores.  One exp pass serves both, and float32 scores stay float32.
    """
    mx = float(np.max(q_scores))
    e = np.exp(q_scores - mx)
    total = float(e.sum())
    return p_mean - (mx + float(np.log(total / q_scores.size))), e / total


def project_primal(beta, norm_budget):
    """Rescale beta radially so ||beta|| <= norm_budget."""
    nrm = float(np.linalg.norm(beta))
    if not nrm <= norm_budget:  # NaN too
        # rescaling by norm_budget / inf would zero the weights silently, or
        # give 0 * inf = NaN where a weight is infinite
        if not math.isfinite(nrm):
            raise NumericalFailureError("the weight norm is not finite after a gradient step; step_size is too large")
        beta = beta * (norm_budget / nrm)
    return beta


def ascend(step, weights, cfg):
    """Call ``step(weights, rng) -> (weights, value)`` until the stall rule fires or cfg.max_iter.

    ``rng`` is seeded from cfg.seed.  Returns the final weights and an
    OptimizationTrace; a non-finite value raises NumericalFailureError.
    """
    rng = np.random.default_rng(cfg.seed)
    kl_values = []  # a list: cfg.max_iter has no upper bound, so nothing is preallocated
    smoothed = None
    stall = 0
    # an overflowing step is reported by the projection or as a non-finite value, not by numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(1, cfg.max_iter + 1):
            weights, kl = step(weights, rng)
            if not np.isfinite(kl):
                raise NumericalFailureError(f"non-finite objective at iteration {it}", iteration=it)
            kl_values.append(kl)
            # np.mean's own pairwise sum and division, without its per-call overhead
            window = kl_values[-CONVERGENCE_WINDOW:]
            prev, smoothed = smoothed, float(np.add.reduce(window)) / len(window)
            stall = stall + 1 if prev is not None and abs(smoothed - prev) <= cfg.gamma else 0
            if stall >= CONVERGENCE_WINDOW:
                break
    trace = OptimizationTrace(
        kl_values=np.asarray(kl_values), converged=stall >= CONVERGENCE_WINDOW, iterations=it, estimate=smoothed
    )
    return weights, trace


def run_primal(mean_phi_x, PhiY, cfg, whitener=None):
    """Optimize the feature parameterization; returns (beta, OptimizationTrace).

    The Q-sample features are the rows of PhiY times ``whitener`` (the
    identity when None); ``mean_phi_x`` is the P-samples' mean feature vector.
    Dual mode passes the rows of a pivoted Cholesky factor.  Primal mode passes
    landmark kernel rows k(y, P) and W = L_PP^-T (``kernels.LandmarkMap``);
    each step scores a minibatch with K_b (W beta) and maps the gradient back
    with W' (K_b' w), O(minibatch * r + r^2).  PhiY is a stored array, or a
    ``kernels.KernelRows`` that makes each minibatch's rows when drawn; both
    take the same draws, so both give the same bits wherever ``KernelRows``
    reproduces the stored rows.  A full batch makes a ``KernelRows`` once.
    """
    if not isinstance(PhiY, KernelRows):
        PhiY = np.asarray(PhiY)
    mean_phi_x = np.asarray(mean_phi_x)
    d = PhiY.shape[1:] if whitener is None else whitener.shape[1:]
    if len(PhiY.shape) != 2 or mean_phi_x.shape != d or whitener is not None and whitener.shape[0] != PhiY.shape[1]:
        raise InvalidInputError("mean_phi_x must be a d-vector matching the m x d features PhiY @ whitener")
    # beta matches the feature dtype so float32 inputs avoid per-step upcasts
    dtype = np.result_type(PhiY.dtype, np.float32)
    mean_phi_x = mean_phi_x.astype(dtype, copy=False)
    if whitener is not None:
        whitener = whitener.astype(dtype, copy=False)
    m = PhiY.shape[0]
    if cfg.minibatch >= m:
        PhiY = PhiY[:]  # every step uses every row: a KernelRows is made once, an array viewed

    def step(beta, rng):
        # Q rows drawn with replacement; every row, uncopied, once the batch covers all m
        Py = PhiY if cfg.minibatch >= m else PhiY[rng.integers(0, m, size=cfg.minibatch)]
        kl, w = dv_value_and_weights(float(mean_phi_x @ beta), Py @ (beta if whitener is None else whitener @ beta))
        grad = Py.T @ w
        grad = (grad if whitener is None else whitener.T @ grad) - mean_phi_x
        if cfg.penalty_weight:
            grad = grad + 2.0 * cfg.penalty_weight * beta
        return project_primal(beta - cfg.step_size * grad, cfg.norm_budget), kl

    return ascend(step, np.zeros(d, dtype=dtype), cfg)

