"""Neural baseline: a one-hidden-layer network trained on the same bound.

The witness is t(z) = v . tanh(W z + b) + c, whose parameters are one vector
[W.ravel(), b, v, c] that the optimizer steps as it steps the kernel witness's
beta; ``_layers`` reads the layers off it as views.  It is trained by
minibatch SGD to maximize mean_P[t] - log mean_Q[exp(t)], with manual
backpropagation in one pass per step over the stacked P and Q batch:
``optimize.dv_value_and_weights`` gives the bound and the weights over the
Q-scores that backpropagate its log-mean-exp term.  The steps run under the
kernel estimator's driver and settings (``optimize.ascend``, ``OptimizerConfig``)
with the same ``CONVERGENCE_WINDOW`` stopping rule.  Parameters are
unconstrained; a run that produces non-finite values raises instead of clamping.
"""

import numpy as np

from .estimator import EstimateResult, _validate_samples, derive_seed
from .optimize import OptimizerConfig, ascend, dv_value_and_weights

_INIT_TAG = 11
_LOOP_TAG = 12

#: Hidden units of the network.
HIDDEN_WIDTH = 64
#: MINE's optimizer defaults: a damped step, and no RKHS penalty, which the network does not have.
MINE_OPTIMIZER = OptimizerConfig(step_size=0.2, penalty_weight=0.0)


def init_params(input_dim, hidden_width, seed=0):
    """Seeded parameter vector, uniform in [-1/sqrt(fan_in), +1/sqrt(fan_in)] per layer.

    One draw for W and b and one for v and c take the stream four draws in that order would.
    """
    rng = np.random.default_rng(seed)
    lim1, lim2 = 1.0 / np.sqrt(input_dim), 1.0 / np.sqrt(hidden_width)
    return np.concatenate([rng.uniform(-lim1, lim1, size=hidden_width * (input_dim + 1)),
                           rng.uniform(-lim2, lim2, size=hidden_width + 1)])


def _layers(vec, input_dim):
    """Views W (hidden x input_dim), b, v and the scalar c of a parameter vector."""
    h = (vec.size - 1) // (input_dim + 2)
    W = vec[: h * input_dim].reshape(h, input_dim)
    return W, vec[h * input_dim : h * (input_dim + 1)], vec[h * (input_dim + 1) : -1], vec[-1]


def _hidden(vec, Z):
    """Hidden activations tanh(Z W' + b), one row per sample."""
    W, b, _, _ = _layers(vec, Z.shape[1])
    # at D = 1 numpy's matmul takes a loop outside BLAS (25 against 8 us at
    # 200 x 64 on a 2-core VM); each entry is then one product, the same bits
    H = np.dot(Z, W.T) if Z.shape[1] == 1 else Z @ W.T
    H += b
    return np.tanh(H, out=H)


def _stacked_objective_and_gradient(vec, Z, p_weights):
    """``dv_objective_and_gradient`` on the stacked batch Z = [Xb; Yb], with p_weights the n entries 1/n."""
    n = p_weights.shape[0]
    _, _, v, c = _layers(vec, Z.shape[1])
    A = _hidden(vec, Z)
    t = A @ v
    t += c
    value, w = dv_value_and_weights(float(np.mean(t[:n])), t[n:])
    u = np.concatenate([p_weights, np.negative(w, out=w)])
    S = np.square(A)
    np.subtract(1.0, S, out=S)
    S *= u[:, None]
    S *= v
    return value, np.concatenate([(S.T @ Z).ravel(), S.sum(axis=0), A.T @ u, [u.sum()]])


def dv_objective_and_gradient(vec, Xb, Yb):
    """Bound value mean_P[t] - log mean_Q[exp(t)] and its gradient, a vector laid out as ``vec``.

    One pass over the stacked batch z = [Xb; Yb]: the gradient is
    sum_i u_i grad t(z_i), with u_i = 1/n on the P rows and minus the
    softmax weights on the Q rows.
    """
    n = Xb.shape[0]
    return _stacked_objective_and_gradient(vec, np.concatenate([Xb, Yb]), np.full(n, 1.0 / n))


def mine_estimate(X, Y, cfg=None):
    """Estimate KL(P || Q) with the neural witness under ``cfg``, an ``OptimizerConfig`` (default ``MINE_OPTIMIZER``)."""
    cfg = cfg or MINE_OPTIMIZER
    X, Y = _validate_samples(X, Y)
    (n, input_dim), m = X.shape, Y.shape[0]
    # the network is nonlinear in P, so minibatches draw P indices as well as Q;
    # the whole arrays are reused only when the batch covers both n and m
    batch = min(cfg.minibatch, n, m)
    full_batch = batch >= n and batch >= m
    if full_batch:  # stacked, and its P weights made, once
        Z, p_weights = np.concatenate([X, Y]), np.full(n, 1.0 / n)

    def step(vec, rng):
        # ascent on the bound; the tracked value is the incoming iterate's,
        # which the gradient computation produces for free
        if full_batch:
            value, grad = _stacked_objective_and_gradient(vec, Z, p_weights)
        else:
            value, grad = dv_objective_and_gradient(vec, X[rng.integers(0, n, size=batch)],
                                                    Y[rng.integers(0, m, size=batch)])
        grad *= cfg.step_size
        grad += vec
        return grad, value

    vec0 = init_params(input_dim, HIDDEN_WIDTH, seed=derive_seed(cfg.seed, _INIT_TAG))
    _, trace = ascend(step, vec0, cfg.with_seed(derive_seed(cfg.seed, _LOOP_TAG)))
    return EstimateResult(kl_estimate=trace.estimate, trace=trace, config=cfg, sample_sizes=(n, m),
                          bandwidth=float("nan"))
