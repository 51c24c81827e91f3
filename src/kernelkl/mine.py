"""Neural baseline: a one-hidden-layer network trained on the same bound.

The witness T is parameterized as t(z) = v . tanh(W z + b) + c and trained by
minibatch SGD to maximize mean_P[t] - log mean_Q[exp(t)], with manual
backpropagation in one pass per step over the stacked P and Q batch:
``objective.dv_value_and_weights`` gives the bound and the weights over the
Q-scores that backpropagate its log-mean-exp term.  The steps run under the
kernel estimator's driver and settings (``optimize.ascend``, ``OptimizerConfig``)
with the same ``CONVERGENCE_WINDOW`` stopping rule.  Parameters are
unconstrained; a run that produces non-finite values raises instead of clamping.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .estimator import EstimateResult, _validate_samples, derive_seed
from .objective import dv_value_and_weights
from .optimize import OptimizerConfig, ascend

_INIT_TAG = 11
_LOOP_TAG = 12

#: Hidden units of the network.
HIDDEN_WIDTH = 64
#: MINE's optimizer defaults: a damped step, and no RKHS penalty, which the network does not have.
MINE_OPTIMIZER = OptimizerConfig(step_size=0.2, penalty_weight=0.0)


@dataclass(frozen=True)
class MlpParams:
    """Weights of the affine -> tanh -> affine scalar map."""

    W: np.ndarray  # (hidden, input_dim)
    b: np.ndarray  # (hidden,)
    v: np.ndarray  # (hidden,)
    c: float

    @property
    def input_dim(self):
        return self.W.shape[1]


def init_params(input_dim, hidden_width, seed=0):
    """Seeded uniform init in [-1/sqrt(fan_in), +1/sqrt(fan_in)] per layer."""
    rng = np.random.default_rng(seed)
    lim1 = 1.0 / np.sqrt(input_dim)
    lim2 = 1.0 / np.sqrt(hidden_width)
    return MlpParams(
        W=rng.uniform(-lim1, lim1, size=(hidden_width, input_dim)),
        b=rng.uniform(-lim1, lim1, size=hidden_width),
        v=rng.uniform(-lim2, lim2, size=hidden_width),
        c=float(rng.uniform(-lim2, lim2)),
    )


def pack_params(params):
    return np.concatenate([params.W.ravel(), params.b, params.v, [params.c]])


def unpack_params(vec, input_dim, hidden_width):
    h, d = hidden_width, input_dim
    W = vec[: h * d].reshape(h, d)
    b = vec[h * d : h * d + h]
    v = vec[h * d + h : h * d + 2 * h]
    return MlpParams(W=W, b=b, v=v, c=float(vec[-1]))


def _hidden(params, Z):
    """Hidden activations tanh(Z W' + b), one row per sample."""
    return np.tanh(Z @ params.W.T + params.b)


def mine_forward(params, z):
    """Evaluate t(z) for one D-vector or row-wise for an n x D matrix."""
    z = np.asarray(z, dtype=float)
    single = z.ndim == 1
    if single:
        z = z[None, :]
    if z.shape[1] != params.input_dim:
        raise InvalidInputError(f"input dimension {z.shape[1]} does not match network ({params.input_dim})")
    out = _hidden(params, z) @ params.v + params.c
    return float(out[0]) if single else out


def dv_objective_and_gradient(params, Xb, Yb):
    """Bound value mean_P[t] - log mean_Q[exp(t)] and its parameter gradient.

    One pass over the stacked batch z = [Xb; Yb]: the gradient is
    sum_i u_i grad t(z_i), with u_i = 1/n on the P rows and minus the
    softmax weights on the Q rows.
    """
    n = Xb.shape[0]
    Z = np.concatenate([Xb, Yb])
    A = _hidden(params, Z)
    t = A @ params.v + params.c
    value, w = dv_value_and_weights(float(np.mean(t[:n])), t[n:])
    u = np.concatenate([np.full(n, 1.0 / n), -w])
    S = (u[:, None] * (1.0 - A**2)) * params.v
    return value, pack_params(MlpParams(W=S.T @ Z, b=S.sum(axis=0), v=A.T @ u, c=float(u.sum())))


def mine_estimate(X, Y, cfg=None):
    """Estimate KL(P || Q) with the neural witness under ``cfg``, an ``OptimizerConfig`` (default ``MINE_OPTIMIZER``)."""
    cfg = cfg or MINE_OPTIMIZER
    X, Y = _validate_samples(X, Y)
    (n, input_dim), m = X.shape, Y.shape[0]
    # the network is nonlinear in P, so minibatches draw P indices as well as Q;
    # the whole arrays are reused only when the batch covers both n and m
    batch = min(cfg.minibatch, n, m)
    full_batch = batch >= n and batch >= m

    def step(vec, rng):
        Xb, Yb = X, Y
        if not full_batch:
            Xb = X[rng.integers(0, n, size=batch)]
            Yb = Y[rng.integers(0, m, size=batch)]
        # ascent on the bound; the tracked value is the incoming iterate's,
        # which the gradient computation produces for free
        value, grad = dv_objective_and_gradient(unpack_params(vec, input_dim, HIDDEN_WIDTH), Xb, Yb)
        return vec + cfg.step_size * grad, value

    params0 = init_params(input_dim, HIDDEN_WIDTH, seed=derive_seed(cfg.seed, _INIT_TAG))
    _, trace = ascend(step, pack_params(params0), cfg.with_seed(derive_seed(cfg.seed, _LOOP_TAG)))
    return EstimateResult(
        kl_estimate=trace.estimate,
        trace=trace,
        config=cfg,
        sample_sizes=(n, m),
        bandwidth=float("nan"),
    )
