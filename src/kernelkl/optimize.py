"""Projected minibatch SGD over the Donsker-Varadhan loss.

One loop serves both parameterizations: sample a minibatch of Q-samples, take
a gradient ascent step on the divergence estimate (equivalently a descent
step on the penalized loss), rescale back into the norm-budget ball, and stop
once a window-smoothed sequence of divergence values stalls.  Both kernel
witnesses are linear in their weights, so the P term of the bound is the
weights dotted with the P-side mean (the kernel mean embedding); it is
computed once, exactly, and only the log-mean-exp term over Q is sampled.

The stopping rule compares successive values of a moving average over
``convergence_window`` minibatch evaluations and requires the difference to
stay below ``gamma`` for a full window of consecutive steps; in the
full-batch limit this reduces to comparing successive exact values.  The
tracked value is the incoming iterate's divergence on the fresh minibatch
(available for free from the gradient computation); the returned scalar is
the mean over the final window rather than the last iterate, which damps
minibatch noise.
"""

from dataclasses import dataclass, field, replace

import numpy as np
from .errors import InvalidInputError, NumericalFailureError
from .objective import DualWeights, PrimalWeights, dv_value_and_weights

DEFAULT_NORM_BUDGET = 10.0


@dataclass(frozen=True)
class OptimizerConfig:
    step_size: float = 0.5
    max_iter: int = 500
    gamma: float = 1e-5
    minibatch: int = 512
    penalty_weight: float = 1e-3
    norm_budget: float = DEFAULT_NORM_BUDGET
    seed: int = 0
    convergence_window: int = 10

    def __post_init__(self):
        if self.step_size <= 0 or self.max_iter <= 0 or self.gamma <= 0:
            raise InvalidInputError("step_size, max_iter, and gamma must be positive")
        if self.minibatch <= 0 or self.convergence_window <= 0 or self.norm_budget <= 0:
            raise InvalidInputError("minibatch, convergence_window, and norm_budget must be positive")
        if self.penalty_weight < 0:
            raise InvalidInputError("penalty_weight must be nonnegative")

    def with_seed(self, seed):
        return replace(self, seed=seed)


@dataclass(frozen=True)
class OptimizationTrace:
    """Per-iteration divergence values plus how and when the loop exited."""

    kl_values: np.ndarray
    converged: bool
    iterations: int
    estimate: float = field(default=float("nan"))


def _rescale_dual(alpha, k_alpha, norm_budget):
    """Rescale alpha and its product K alpha by one factor so alpha' K alpha <= norm_budget^2."""
    q = float(alpha @ k_alpha)
    if q > norm_budget**2:
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
    if nrm > norm_budget:
        beta = beta * (norm_budget / nrm)
    return beta


class _Loop:
    """Shared SGD loop; subclasses supply the per-minibatch update step.

    A minibatch is ``batch`` indices into the m Q-samples, drawn with
    replacement (O(k) per draw); once ``batch`` covers all m samples, the
    step gets ``None`` and reuses the whole arrays without copying.
    """

    def __init__(self, m, cfg):
        self.m = m
        self.cfg = cfg
        self.rng = np.random.default_rng(cfg.seed)
        self.batch = min(cfg.minibatch, m)
        self.full_batch = self.batch >= m

    def sample_batch(self):
        if self.full_batch:
            return None
        return self.rng.integers(0, self.m, size=self.batch)

    def run(self, weights):
        cfg = self.cfg
        window = cfg.convergence_window
        kl_values = []
        smoothed = []
        stall = 0
        converged = False
        it = 0
        for it in range(1, cfg.max_iter + 1):
            weights, kl = self.minibatch_step(weights, self.sample_batch())
            if not np.isfinite(kl):
                raise NumericalFailureError(f"non-finite objective at iteration {it}", iteration=it)
            kl_values.append(kl)
            smoothed.append(float(np.mean(kl_values[-window:])))
            if len(smoothed) >= 2 and abs(smoothed[-1] - smoothed[-2]) <= cfg.gamma:
                stall += 1
            else:
                stall = 0
            if stall >= window:
                converged = True
                break
        kl_values = np.asarray(kl_values)
        estimate = float(np.mean(kl_values[-window:]))
        trace = OptimizationTrace(kl_values=kl_values, converged=converged, iterations=it, estimate=estimate)
        return weights, trace


class _DualLoop(_Loop):
    """Dual steps carry the state (alpha, K alpha).

    One product with K per step serves the Q scores, the penalty gradient and
    the radial projection of the next step.
    """

    def __init__(self, K, cfg):
        super().__init__(K.m, cfg)
        self.K = K
        self.mean_kx = K.entries[: K.n].mean(axis=0)

    def minibatch_step(self, state, iy):
        alpha, k_alpha = state
        n = self.K.n
        rows = slice(n, None) if iy is None else n + iy
        # divergence of the incoming iterate on this minibatch, from quantities
        # the gradient needs anyway
        kl, w = dv_value_and_weights(float(self.mean_kx @ alpha), k_alpha[rows])
        grad = self.K.entries[rows].T @ w - self.mean_kx
        if self.cfg.penalty_weight:
            grad = grad + 2.0 * self.cfg.penalty_weight * k_alpha
        alpha = alpha - self.cfg.step_size * grad
        return _rescale_dual(alpha, self.K.entries @ alpha, self.cfg.norm_budget), kl


class _PrimalLoop(_Loop):
    def __init__(self, mean_phi_x, PhiY, cfg):
        super().__init__(PhiY.shape[0], cfg)
        self.mean_phi_x = mean_phi_x
        self.PhiY = PhiY

    def minibatch_step(self, beta, iy):
        Py = self.PhiY if iy is None else self.PhiY[iy]
        kl, w = dv_value_and_weights(float(self.mean_phi_x @ beta), Py @ beta)
        grad = Py.T @ w - self.mean_phi_x
        if self.cfg.penalty_weight:
            grad = grad + 2.0 * self.cfg.penalty_weight * beta
        beta = project_primal(beta - self.cfg.step_size * grad, self.cfg.norm_budget)
        return beta, kl


def run_dual(K, cfg):
    """Optimize the Gram parameterization; returns (DualWeights, OptimizationTrace).

    Initialization is alpha = 0 (feasible, divergence 0); deterministic given
    cfg.seed.
    """
    alpha0 = np.zeros(K.size)
    loop = _DualLoop(K, cfg)
    (alpha, _), trace = loop.run((alpha0, np.zeros(K.size)))
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
    loop = _PrimalLoop(mean_phi_x.astype(dtype, copy=False), PhiY, cfg)
    beta, trace = loop.run(np.zeros(PhiY.shape[1], dtype=dtype))
    return PrimalWeights(beta=beta, norm_budget=cfg.norm_budget), trace
