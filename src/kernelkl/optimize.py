"""Solvers for the Donsker-Varadhan loss: projected minibatch SGD, and Newton's method over the ball.

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

The stopping rule of ``ascend`` compares successive values of a moving
average over the last ``CONVERGENCE_WINDOW`` = 10 minibatch values and
requires the difference to stay below ``gamma`` for a full window of
consecutive steps; in the full-batch limit this reduces to comparing
successive exact values.  The returned scalar is the mean over the final
window rather than the last iterate, which damps minibatch noise.

``run_newton`` solves the same r-dimensional kernel problem exactly on one
stored float64 matrix of Q feature rows: the penalized loss is smooth and
2 * penalty_weight strongly convex, so Newton's method on the landmark
features reaches its optimum over the ball in a handful of iterations
(Marteau-Ferey, Bach & Rudi 2019).  There ``gamma`` is a tolerance in nats
on the Frank-Wolfe gap (Jaggi 2013), which bounds how far the returned
witness's penalized loss is from the optimum, and the reported value is the
bound at that witness on every row.  step_size and minibatch are SGD
settings only, and no setting here chooses the solver: the estimator routes
by the problem's size (``estimator.NEWTON_MAX_ENTRIES``).
"""

import math
from dataclasses import dataclass, replace

import numpy as np
from .errors import InvalidInputError, NumericalFailureError, require_count, require_seed
from .kernels import KernelRows, _inverse_transpose

DEFAULT_NORM_BUDGET = 10.0
CONVERGENCE_WINDOW = 10
#: Most halvings of one Newton step in ``run_newton``'s backtracking.
MAX_HALVINGS = 30
#: Share of the model's predicted fall that a backtracked Newton step must achieve (Armijo).
ARMIJO_FRACTION = 1e-4


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
        require_count("max_iter", self.max_iter)
        require_count("minibatch", self.minibatch)
        require_seed("seed", self.seed)
        # chained comparisons are False for NaN, so NaN and inf are rejected too
        if not all(0 < x < np.inf for x in (self.step_size, self.gamma, self.norm_budget)):
            raise InvalidInputError("step_size, gamma, and norm_budget must be finite and positive")
        if not 0 <= self.penalty_weight < np.inf:
            raise InvalidInputError("penalty_weight must be finite and nonnegative")

    def with_seed(self, seed):
        return replace(self, seed=seed)


@dataclass(frozen=True)
class OptimizationTrace:
    """Per-iteration divergence values plus how and when the loop exited.

    ``gap`` is the Frank-Wolfe gap of the penalized loss at the returned
    witness, an upper bound on how far its penalized objective is from the
    optimum over the ball: set by ``run_newton``, None from ``ascend``.
    """

    kl_values: np.ndarray
    converged: bool
    iterations: int
    estimate: float
    gap: float | None = None


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


def _check_features(mean_phi_x, PhiY, whitener):
    """The feature dimension d of the rows PhiY @ whitener, once their shapes are checked against mean_phi_x."""
    d = PhiY.shape[1:] if whitener is None else whitener.shape[1:]
    if len(PhiY.shape) != 2 or mean_phi_x.shape != d or whitener is not None and whitener.shape[0] != PhiY.shape[1]:
        raise InvalidInputError("mean_phi_x must be a d-vector matching the m x d features PhiY @ whitener")
    return d


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
    d = _check_features(mean_phi_x, PhiY, whitener)
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


def _ball_newton_point(H, rhs, radius):
    """The x with ||x|| <= radius minimizing x'Hx / 2 - rhs'x, for a positive semidefinite H.

    It solves (H + nu I) x = rhs for the smallest nu >= 0 that puts x in the
    ball.  Where nu > 0, the root of ||x(nu)|| = radius is found by Newton's
    method on 1 / ||x(nu)||, which is nearly linear in nu (More & Sorensen
    1983), kept inside a bracket by bisection.  Each nu tried factors
    H + nu I = L L' by Cholesky and inverts L by forward substitution
    (``kernels._inverse_transpose``).  On a 2-core VM with OpenBLAS, numpy's
    LU solve took ~0.13 s per call instead of 0.5 ms at r = 180 in 2 of 70
    fresh processes, where Cholesky took 0.9 ms; ``eigh`` took 16 ms at
    r = 26-32 after a matrix product (0.1 ms alone).
    """
    eye = np.eye(len(rhs))

    def point(nu):
        """x(nu) and x' (H + nu I)^-1 x, or None where H + nu I is not positive definite."""
        try:
            inv_t = _inverse_transpose(np.linalg.cholesky(H + nu * eye))  # (H + nu I)^-1 = inv_t inv_t'
        except np.linalg.LinAlgError:
            return None, None  # singular to rounding: only without a penalty, at nu near 0
        x = inv_t @ (inv_t.T @ rhs)
        q = inv_t.T @ x
        return x, float(q @ q)

    x, xq = point(0.0)
    if x is not None and np.linalg.norm(x) <= radius:
        return x
    lo, hi = 0.0, float(np.linalg.norm(rhs)) / radius  # ||x(hi)|| <= ||rhs|| / hi = radius
    nu = 0.0
    for _ in range(100):
        if x is None:
            lo = nu
        else:
            norm = float(np.linalg.norm(x))
            if abs(norm - radius) <= 1e-10 * radius:
                break
            if norm > radius:
                lo = nu
            else:
                hi = nu
            # d ||x|| / d nu = -x' (H + nu I)^-1 x / ||x||
            nu += (norm - radius) / radius * norm**2 / xq
        if x is None or not lo < nu < hi:
            nu = (lo + hi) / 2
        x, xq = point(nu)
    return x * min(1.0, radius / float(np.linalg.norm(x)))


def run_newton(mean_phi_x, Phi, cfg):
    """Minimize the penalized loss over the norm ball by Newton's method; returns (beta, OptimizationTrace).

    Phi is the stored m x r matrix of Q feature rows, used in float64 and
    never written to; ``mean_phi_x`` is the P-samples' mean feature vector.
    The loss F(beta) = log mean_j exp(phi_j . beta) - mean_phi_x . beta +
    penalty_weight ||beta||^2 is smooth and strongly convex.  Each iteration
    minimizes its second-order model over the ball (``_ball_newton_point``)
    and backtracks along the segment to that point, which stays feasible,
    until F falls by an Armijo fraction of the model's slope.  Scores,
    gradient and Hessian are one product each; the Hessian's makes one
    scaled copy of Phi.

    The loop stops once the Frank-Wolfe gap <grad F, beta> + M ||grad F||,
    which bounds F(beta) - min F over the ball (Jaggi 2013), is at most
    cfg.gamma (``converged``), after cfg.max_iter steps, or where no
    backtracked step lowers F any more.  ``kl_values`` holds the bound at
    each iterate after the start at beta = 0, ``estimate`` the bound at the
    returned float64 witness over every row.  cfg.step_size and
    cfg.minibatch are not used.
    """
    Phi = np.asarray(Phi, dtype=np.float64)
    mu = np.asarray(mean_phi_x, dtype=np.float64)
    _check_features(mu, Phi, None)
    m, r = Phi.shape
    radius, lam = cfg.norm_budget, cfg.penalty_weight

    def bound_and_weights(beta):
        return dv_value_and_weights(float(mu @ beta), Phi @ beta)

    def hessian(w, mean_y):  # sum_j w_j phi_j phi_j' - mean_y mean_y' + 2 lam I
        scaled = np.sqrt(w)[:, None] * Phi
        hess = scaled.T @ scaled
        hess -= np.outer(mean_y, mean_y)
        hess.flat[:: r + 1] += 2.0 * lam
        return hess

    def penalized(beta, bound):
        return lam * float(beta @ beta) - bound

    beta = np.zeros(r)
    bound, w = dv_value_and_weights(0.0, np.zeros(m))
    values = []
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            mean_y = w @ Phi  # the gradient of the log-mean-exp term
            grad = mean_y - mu + 2.0 * lam * beta
            gap = float(grad @ beta) + radius * float(np.linalg.norm(grad))
            if gap <= cfg.gamma or len(values) == cfg.max_iter:
                break
            hess = hessian(w, mean_y)
            step = _ball_newton_point(hess, hess @ beta - grad, radius) - beta
            loss, slope = penalized(beta, bound), float(grad @ step)
            for halvings in range(MAX_HALVINGS + 1):
                trial = beta + 0.5**halvings * step
                trial_bound, trial_w = bound_and_weights(trial)
                if not math.isfinite(trial_bound):
                    it = len(values) + 1
                    raise NumericalFailureError(f"non-finite objective at iteration {it}", iteration=it)
                # strictly lower, so a step whose fall rounds to zero is refused
                if penalized(trial, trial_bound) < loss + ARMIJO_FRACTION * 0.5**halvings * slope:
                    break
            else:
                break  # F no longer falls at the rounding scale of its float64 sums
            beta, bound, w = trial, trial_bound, trial_w
            values.append(bound)
    trace = OptimizationTrace(
        kl_values=np.asarray(values, dtype=float), converged=gap <= cfg.gamma, iterations=len(values),
        estimate=bound, gap=gap,
    )
    return beta, trace
