"""User-facing divergence and mutual-information estimation.

KL divergence between two sample sets is estimated by maximizing the
Donsker-Varadhan bound over an RKHS norm ball, on exact-kernel features.
Both modes factor a pool of the pooled samples the same way, by pivoted
Cholesky on kernel columns made on demand.  Primal mode (the default, linear
in the pooled sample count) factors a seeded subsample and extends the factor
to every row as landmark (Nystrom) features; dual mode factors every pooled
row and uses the rows of the factor, in float64, so it also serves bandwidths
too small for float32 kernel rows.  Primal mode solves by Newton's method
to a certified Frank-Wolfe gap (``optimize.run_newton``), on one float64
matrix of whitened Q rows, where m Q rows at rank r make at most
``NEWTON_MAX_ENTRIES`` entries (m + r) r; dual mode and larger problems run
projected minibatch SGD (``optimize.run_primal``) on stored or streamed rows.
The route reads only m and r, never an SGD setting.  Dual mode keeps SGD at
small n on purpose: there its early stop acts as the regulariser.  Mutual
information is the KL divergence between the joint sample and a
product-of-marginals surrogate obtained by permuting the y-block within the
same rows.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InvalidInputError, require_count, require_seed
from .kernels import (
    DEFAULT_FEATURE_DIM,
    KernelRows,
    KernelSpec,
    _factor_pool,
    as_sample_pair,
    kernel_rows,
    mapped_empty,
    mean_landmark_features,
    median_heuristic_bandwidth,
    sample_landmarks,
)
from .optimize import OptimizationTrace, OptimizerConfig, run_newton, run_primal

_BANDWIDTH_TAG = 1
_FEATURES_TAG = 2
_OPTIMIZER_TAG = 3
_PERMUTE_TAG = 4


def derive_seed(seed, tag):
    """Deterministic 32-bit sub-seed for one named consumer of the run seed."""
    require_seed("seed", seed)
    return int(np.random.SeedSequence(entropy=(int(seed), int(tag))).generate_state(1)[0])


#: Largest Q-side kernel-row matrix ``estimate_kl`` stores: 48 MiB, 24 576
#: rows at r = 512 in float32.  Storing makes each row once; streaming
#: (``kernels.KernelRows``) makes every minibatch when drawn and holds one.  On
#: a 2-core VM, 20k-row MI runs at D = 3 and 5 (41 MB) were slower streamed
#: than stored (0.43 s); a 100k-row run at D = 1 + 1 (72 MB) streams.
MAX_STORED_KERNEL_BYTES = 48 * 2**20

#: Most entries (m + r) r of a primal problem, m Q rows at rank r, that
#: ``run_newton`` solves: the rows of the default SGD run, 500 steps of 512.
#: On a 2-core VM at r = 155-168, Newton's solve beat that run up to 4000
#: rows and tied at 6000; no problem at r = 512, where it lost, is this small.
#: Its float64 rows and the Hessian's scaled copy, 16 bytes an entry, stay
#: under 3.9 MiB, inside ``MAX_STORED_KERNEL_BYTES``.
NEWTON_MAX_ENTRIES = 256_000

#: Fewest rows a mutual-information estimate takes.
MIN_MI_ROWS = 4

#: Multiplier on the median-heuristic bandwidth.  The plain median is
#: too smooth for strongly peaked density ratios (high-correlation MI tasks
#: cap well short of the truth); halving it restores capacity without hurting
#: the low-divergence regime.
DEFAULT_BANDWIDTH_SCALE = 0.5


@dataclass(frozen=True)
class EstimatorConfig:
    mode: str = "primal"
    feature_dim: int = DEFAULT_FEATURE_DIM  # the most landmarks (primal) or pivoted-Cholesky features (dual)
    bandwidth: float | None = None  # None selects the scaled median heuristic
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)

    def __post_init__(self):
        if self.mode not in ("primal", "dual"):
            raise InvalidInputError(f"mode must be 'primal' or 'dual', got {self.mode!r}")
        require_count("feature_dim", self.feature_dim)
        if self.bandwidth is not None:
            KernelSpec(self.bandwidth)  # the kernel's own rule for its length scale

    def with_seed(self, seed):
        return replace(self, optimizer=self.optimizer.with_seed(seed))


@dataclass(frozen=True)
class EstimateResult:
    """Estimate in nats plus the optimization trace and the settings that produced it."""

    kl_estimate: float
    trace: OptimizationTrace
    config: EstimatorConfig
    sample_sizes: tuple
    bandwidth: float
    degenerate: bool = False

    @property
    def converged(self):
        return self.trace.converged

    @property
    def iterations(self):
        return self.trace.iterations


def _validate_samples(X, Y):
    X, Y = as_sample_pair(X, Y)
    if X.shape[0] < 2 or Y.shape[0] < 2:
        raise InvalidInputError("need at least 2 samples on each side")
    return X, Y


def estimate_kl(X, Y, cfg=None):
    """Estimate KL(P || Q) in nats from samples X ~ P and Y ~ Q."""
    cfg = cfg or EstimatorConfig()
    X, Y = _validate_samples(X, Y)
    # all points identical in both sets: divergence 0 by construction, after
    # no iterations; the witness T = 0 is optimal, with a gap of 0
    degenerate = bool(np.all(X == X[0]) and np.all(Y == X[0]))
    if degenerate:
        bandwidth = 1.0
        trace = OptimizationTrace(kl_values=np.zeros(0), converged=True, iterations=0, estimate=0.0, gap=0.0)
    else:
        bandwidth, trace = _fit(X, Y, cfg)
    return EstimateResult(
        kl_estimate=trace.estimate,
        trace=trace,
        config=cfg,
        sample_sizes=(X.shape[0], Y.shape[0]),
        bandwidth=bandwidth,
        degenerate=degenerate,
    )


def _fit(X, Y, cfg):
    """Run the kernel estimator on validated samples; returns (bandwidth, OptimizationTrace)."""
    seed = cfg.optimizer.seed
    if cfg.bandwidth is not None:
        bandwidth = float(cfg.bandwidth)
    else:
        bandwidth = DEFAULT_BANDWIDTH_SCALE * median_heuristic_bandwidth(
            X, Y, seed=derive_seed(seed, _BANDWIDTH_TAG)
        )
    spec = KernelSpec(bandwidth=bandwidth)
    opt_cfg = cfg.optimizer.with_seed(derive_seed(seed, _OPTIMIZER_TAG))

    whitener = None
    if cfg.mode == "dual":
        # K = L L' on the pooled samples, so the RKHS ball there is exactly
        # {L gamma : ||gamma|| <= M}: the rows of L are exact-kernel features
        *_, L, _ = _factor_pool(np.vstack([X, Y]), spec, cfg.feature_dim, np.float64,
                                "the float64 kernel columns of dual mode; use a larger --bandwidth")
        mean_phi_x, PhiY = L[: X.shape[0]].mean(axis=0), L[X.shape[0] :]
    else:
        # The bound is linear in beta on P, so P enters only through its mean
        # embedding.  Q goes to Newton where the problem is small; to SGD on
        # stored float32 kernel rows where those fit the cap; otherwise to SGD
        # on rows made per minibatch when drawn.
        landmarks = sample_landmarks(X, Y, spec, cfg.feature_dim, seed=derive_seed(seed, _FEATURES_TAG))
        mean_phi_x = mean_landmark_features(landmarks, X)
        m, r = Y.shape[0], landmarks.rank
        if (m + r) * r <= NEWTON_MAX_ENTRIES:
            # cast before the product, so at most two m x r float64 matrices are held
            Phi = kernel_rows(landmarks, Y).astype(np.float64) @ landmarks.whitener
            _, trace = run_newton(mean_phi_x, Phi, opt_cfg)
            return bandwidth, trace
        whitener = landmarks.whitener
        if m * r * np.dtype(np.float32).itemsize <= MAX_STORED_KERNEL_BYTES:
            PhiY = kernel_rows(landmarks, Y, out=mapped_empty((m, r), np.float32))
        else:
            PhiY = KernelRows(landmarks, Y)
    _, trace = run_primal(mean_phi_x, PhiY, opt_cfg, whitener)
    return bandwidth, trace


def split_pairs(pairs, x_cols, y_cols):
    """Validate the column roles and return (x-block, y-block)."""
    pairs = np.asarray(pairs, dtype=float)
    if pairs.ndim != 2:
        raise InvalidInputError("pairs must be a 2-D row matrix")
    x_cols = list(x_cols)
    y_cols = list(y_cols)
    if not x_cols or not y_cols:
        raise InvalidInputError("need at least one x-column and one y-column")
    if set(x_cols) & set(y_cols):
        raise InvalidInputError("x-columns and y-columns overlap")
    # a repeated column would count twice in the kernel distance
    if len(set(x_cols)) < len(x_cols) or len(set(y_cols)) < len(y_cols):
        raise InvalidInputError("a column is repeated within the x-columns or the y-columns")
    ncols = pairs.shape[1]
    for c in x_cols + y_cols:
        # a bool would select by mask and a float would not index at all
        if isinstance(c, bool) or not isinstance(c, (int, np.integer)):
            raise InvalidInputError(f"column index {c!r} is not an integer")
        if not 0 <= c < ncols:
            raise InvalidInputError(f"column index {c} out of range for {ncols} columns")
    return pairs[:, x_cols], pairs[:, y_cols]


def joint_and_product(pairs, x_cols, y_cols, seed):
    """Joint rows as P-samples; the same rows with a permuted y-block as Q-samples.

    A single seeded permutation (not re-drawn per epoch) empirically decouples
    the two blocks, standing in for product-of-marginals sampling.
    """
    xs, ys = split_pairs(pairs, x_cols, y_cols)
    if xs.shape[0] < MIN_MI_ROWS:
        raise InvalidInputError(f"need at least {MIN_MI_ROWS} rows to estimate mutual information")
    dx = xs.shape[1]
    joint = np.hstack([xs, ys])
    del xs, ys  # from here, at most the two returned blocks and the permutation are held
    rng = np.random.default_rng(derive_seed(seed, _PERMUTE_TAG))
    perm = rng.permutation(joint.shape[0])
    product = joint[perm]
    product[:, :dx] = joint[:, :dx]
    return joint, product


def estimate_mi(pairs, x_cols, y_cols, cfg=None, seed=None):
    """Estimate I(X; Y) from joint rows whose columns are split into x and y roles.

    Deterministic given the seed (which also reseeds the optimizer when given).
    """
    cfg = cfg or EstimatorConfig()
    if seed is not None:
        cfg = cfg.with_seed(seed)
    joint, product = joint_and_product(pairs, x_cols, y_cols, cfg.optimizer.seed)
    return estimate_kl(joint, product, cfg)
