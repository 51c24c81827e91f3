"""Gaussian RBF kernel, Gram matrices, pivoted Cholesky factors, and random Fourier feature maps.

The feature map follows Rahimi-Recht: phi_i(x) = sqrt(2/d) * cos(w_i . x + b_i)
with w_i ~ N(0, sigma^-2 I) and b_i ~ U[0, 2pi), so that phi(x) . phi(y)
approximates exp(-||x - y||^2 / (2 sigma^2)).  Replacing the (n+m)^2 Gram
matrix with (n+m) x d features drops the per-step optimization cost from
quadratic to linear in the pooled sample count.  A feature row is a fixed
function of its sample, so an n x d feature matrix need never be stored:
``FeatureRows`` maps the rows it is indexed with, and ``mean_feature_map``
reads its chunks through it.  The rows of a pivoted Cholesky factor
K ~= L L' are exact-kernel features of the pooled samples, built from kernel
columns on demand without forming K.

Pairwise distances (the median-heuristic bandwidth and the Gram matrix) are
computed in numpy, one coordinate at a time in coordinate order as
sum_k (a_k - b_k)^2.  That is the order scipy.spatial.distance sums in, so
the results are bit-identical to scipy's ``pdist``/``cdist``, without the
cost of importing scipy.
"""

import math
import mmap
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError

DEFAULT_FEATURE_DIM = 1024
#: Rows mapped at a time by ``mean_feature_map``: 2 MB per chunk at d = 1024 in
#: float32, about one L2 cache, the size of a default streamed Q minibatch.
MEAN_CHUNK_ROWS = 512
#: Largest pooled sample count ``build_gram`` accepts.  The float64 Gram matrix
#: is then 0.8 GB; building it holds that one copy plus one block of rows.
#: ``pivoted_cholesky`` keeps its factor within the same MAX_GRAM_ROWS**2 entries.
MAX_GRAM_ROWS = 10_000
#: ``pivoted_cholesky`` stops once every diagonal residual of K - L L' is at most this.
CHOLESKY_TOL = 1e-6
#: Rows of pairwise distances computed at a time, so the scratch array of
#: ``sq_distances`` is one block of rows rather than a second full matrix.
DISTANCE_BLOCK_ROWS = 64


@dataclass(frozen=True)
class KernelSpec:
    """Gaussian RBF kernel with length scale ``bandwidth`` (same units as the data)."""

    bandwidth: float

    def __post_init__(self):
        if not np.isfinite(self.bandwidth) or self.bandwidth <= 0:
            raise InvalidInputError(f"bandwidth must be a positive finite real, got {self.bandwidth}")


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


@dataclass(frozen=True)
class FeatureMap:
    """Sampled random-feature projection approximating an RBF kernel.

    frequencies: (d, D) rows drawn N(0, bandwidth^-2 I); offsets: (d,) phases.
    Each feature coordinate is bounded by sqrt(2/d), so ||phi(x)||^2 <= 2.
    """

    frequencies: np.ndarray
    offsets: np.ndarray

    @property
    def dim(self):
        return self.frequencies.shape[0]

    @property
    def input_dim(self):
        return self.frequencies.shape[1]


def _as_2d(samples, name):
    arr = np.asarray(samples, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2 or arr.shape[0] == 0:
        raise InvalidInputError(f"{name} must be a nonempty n x D sample matrix")
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError(f"{name} contains non-finite values")
    return arr


def as_sample_pair(X, Y):
    """Validate two sample sets as float matrices with one shared dimension.

    A 1-D input is one sample per entry.  Each set must be nonempty and finite.
    """
    X = _as_2d(X, "X")
    Y = _as_2d(Y, "Y")
    if X.shape[1] != Y.shape[1]:
        raise InvalidInputError(f"X has dimension {X.shape[1]} but Y has dimension {Y.shape[1]}")
    return X, Y


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


def sq_distances(A, B, out=None):
    """Squared Euclidean distances between the rows of A and of B, as a len(A) x len(B) array.

    Bit-identical to ``scipy.spatial.distance.cdist(A, B, "sqeuclidean")``.
    Holds one scratch array the size of the result when D > 1.
    """
    out = np.subtract(A[:, 0, None], B[None, :, 0], out=out)
    np.multiply(out, out, out=out)
    scratch = np.empty_like(out) if A.shape[1] > 1 else None
    for k in range(1, A.shape[1]):
        np.subtract(A[:, k, None], B[None, :, k], out=scratch)
        np.multiply(scratch, scratch, out=scratch)
        out += scratch
    return out


def pair_sq_distances(Z):
    """Squared Euclidean distances of every pair i < j of rows of Z, as a flat array.

    The values of ``scipy.spatial.distance.pdist(Z, "sqeuclidean")``, bit for
    bit, but in block order rather than pdist's: per block of rows, the pairs
    inside the block, then the block against every later row.
    """
    n = Z.shape[0]
    out = np.empty(n * (n - 1) // 2)
    pos = 0
    for start in range(0, n, DISTANCE_BLOCK_ROWS):
        block, later = Z[start : start + DISTANCE_BLOCK_ROWS], Z[start + DISTANCE_BLOCK_ROWS :]
        inner = sq_distances(block, block)[np.triu_indices(len(block), 1)]
        out[pos : pos + inner.size] = inner
        pos += inner.size
        cross = out[pos : pos + len(block) * len(later)]
        sq_distances(block, later, out=cross.reshape(len(block), len(later)))
        pos += cross.size
    return out


def kernel_values(A, B, spec, out=None):
    """exp(-||a - b||^2 / (2 sigma^2)) for every row a of A and b of B, as a len(A) x len(B) array."""
    out = sq_distances(A, B, out=out)
    out /= -2.0 * spec.bandwidth**2
    return np.exp(out, out=out)


def build_gram(X, Y, spec):
    """Kernel matrix over the pooled samples Z = X ++ Y (X rows first).

    At most MAX_GRAM_ROWS pooled samples; larger inputs are refused before
    anything quadratic in their size is allocated.  The distances are
    written into the matrix DISTANCE_BLOCK_ROWS rows at a time and turned
    into kernel values in place, so no second (n+m)^2 array is made.
    """
    X, Y = as_sample_pair(X, Y)
    pooled = X.shape[0] + Y.shape[0]
    if pooled > MAX_GRAM_ROWS:
        raise InvalidInputError(
            f"a {pooled} x {pooled} Gram matrix ({pooled**2 * 8 / 1e9:.1f} GB per copy) is "
            f"above the limit of {MAX_GRAM_ROWS} pooled samples; use primal mode (--mode primal)"
        )
    Z = np.vstack([X, Y])
    entries = np.empty((pooled, pooled))
    for start in range(0, pooled, DISTANCE_BLOCK_ROWS):
        block = slice(start, start + DISTANCE_BLOCK_ROWS)
        kernel_values(Z[block], Z, spec, out=entries[block])
    # (a - b)^2 == (b - a)^2 in floating point, so the entries come out
    # exactly symmetric with a unit diagonal
    return GramMatrix(entries=entries, n=X.shape[0], m=Y.shape[0])


def pivoted_cholesky(column, size, max_rank):
    """Greedy pivoted Cholesky factor K ~= L L' of a size x size kernel matrix with unit diagonal.

    ``column(i)`` returns column i of K; only pivot columns are requested,
    so K is never formed.  Each step pivots on the largest diagonal residual
    of K - L L' and the factor stops at max_rank columns or once every
    residual is at most CHOLESKY_TOL (Fine & Scheinberg 2001; Harbrecht,
    Peters & Schneider 2012).  Returns (L, pivots) with L of shape
    size x rank: K[:, pivots] equals L @ L[pivots].T, L[pivots] is lower
    triangular, and every row of L has norm at most 1, the kernel's diagonal.

    A factor of more than MAX_GRAM_ROWS**2 entries is refused before
    anything is allocated.  L' is filled row by row, so only the rows
    reached take memory.
    """
    cap = min(size, max_rank)
    if size * cap > MAX_GRAM_ROWS**2:
        raise InvalidInputError(
            f"dual mode factors {size} pooled samples into up to {cap} features "
            f"({size * cap * 8 / 1e9:.1f} GB), above the limit of {MAX_GRAM_ROWS**2} entries; "
            "use primal mode (--mode primal) or fewer features (--features)"
        )
    Lt = np.empty((cap, size))
    residual = np.ones(size)
    pivots = []
    for k in range(cap):
        p = int(np.argmax(residual))
        if residual[p] <= CHOLESKY_TOL:
            break
        row = np.subtract(column(p), Lt[:k, p] @ Lt[:k], out=Lt[k])
        row /= np.sqrt(residual[p])
        # the residual of an earlier pivot is exhausted: zero, not rounding noise
        row[pivots] = 0.0
        residual -= row * row
        pivots.append(p)
    return Lt[: len(pivots)].T, np.array(pivots, dtype=np.intp)


def median_heuristic_bandwidth(X, Y, max_points=1000, seed=0):
    """Median pairwise distance over a subsample of <= max_points pooled points.

    Deterministic given the seed.  Falls back to 1.0 when all sampled points
    coincide (zero median), so downstream code never divides by zero.
    """
    Z = np.vstack(as_sample_pair(X, Y))
    if Z.shape[0] > max_points:
        rng = np.random.default_rng(seed)
        idx = rng.choice(Z.shape[0], size=max_points, replace=False)
        Z = Z[idx]
    sq = pair_sq_distances(Z)
    med = 0.0
    if sq.size:
        # np.median(np.sqrt(sq)) bit for bit: sqrt is monotone, so the middle
        # distances are the roots of the middle squared distances, and one
        # partition finds them (np.median partitions twice for an even size)
        half = sq.size // 2
        part = np.partition(sq, half)
        middle = [part[half]] if sq.size % 2 else [part[:half].max(), part[half]]
        med = float(np.mean(np.sqrt(middle)))
    return med if med > 0 else 1.0


def sample_feature_map(input_dim, feature_dim, spec, seed=0):
    """Draw a random Fourier feature map for the given RBF kernel.

    Deterministic given the seed; frequencies i.i.d. N(0, bandwidth^-2) per
    coordinate, offsets i.i.d. uniform on [0, 2pi).
    """
    if input_dim < 1 or feature_dim < 1:
        raise InvalidInputError("input_dim and feature_dim must be >= 1")
    rng = np.random.default_rng(seed)
    frequencies = rng.normal(0.0, 1.0 / spec.bandwidth, size=(feature_dim, input_dim))
    offsets = rng.uniform(0.0, 2.0 * np.pi, size=feature_dim)
    return FeatureMap(frequencies=frequencies, offsets=offsets)


def mapped_empty(shape, dtype):
    """An uninitialised array in an anonymous memory map of its own, outside the C heap.

    Freeing it unmaps it at once.  glibc, freeing a malloc'd array of up to
    32 MiB, raises its mmap threshold, puts later arrays of that size on the
    heap and keeps the heap resident: over twelve 10k-row fairness audits,
    whose Q feature matrices are 16-41 MB, peak RSS grew from 79 to 103 MiB
    with malloc'd matrices and stayed at 79 MiB with mapped ones.
    """
    dtype = np.dtype(dtype)
    return np.frombuffer(mmap.mmap(-1, math.prod(shape) * dtype.itemsize), dtype=dtype).reshape(shape)


def apply_feature_map(fm, x, dtype=float, out=None):
    """Map one D-vector (or an n x D matrix, row-wise) into feature space.

    ``dtype=np.float32`` computes the projection in single precision, which
    roughly halves the cost for large sample matrices.  ``out``, an n x d
    array of that dtype, receives the features of a matrix.
    """
    x = np.asarray(x, dtype=dtype)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != fm.input_dim:
        raise InvalidInputError(f"input dimension {x.shape} does not match feature map ({fm.input_dim})")
    proj = np.matmul(x, fm.frequencies.T.astype(dtype), out=out)
    proj += fm.offsets.astype(dtype)
    np.cos(proj, out=proj)
    # a scalar of the array's own dtype: a float64 one would run a float32
    # array's product in float64 and cast it back (NEP 50)
    proj *= proj.dtype.type(np.sqrt(2.0 / fm.dim))
    return proj[0] if single else proj


class FeatureRows:
    """The rows of ``apply_feature_map(fm, samples, dtype)``, mapped when indexed.

    ``rows[idx]`` is ``apply_feature_map(fm, samples[idx], dtype)`` and holds
    only the rows asked for.  It has the bits of the same rows of the stored
    n x d matrix wherever BLAS computes each row of a product alike whatever
    the number of rows: on OpenBLAS, at d = 1024 for two or more rows.  A
    single row (a matrix-vector product) or a small product (such as d = 16
    with D = 50) may round differently in the last bit.
    """

    def __init__(self, fm, samples, dtype=float):
        self.fm = fm
        self.samples = samples
        self.dtype = np.dtype(dtype)
        self.shape = (samples.shape[0], fm.dim)

    def __getitem__(self, idx):
        return apply_feature_map(self.fm, self.samples[idx], self.dtype)


def mean_feature_map(fm, X, dtype=float):
    """Mean of ``apply_feature_map(fm, X, dtype)`` over the rows of X, in that dtype.

    Rows are mapped MEAN_CHUNK_ROWS at a time and summed in float64, so the
    n x d feature matrix is never stored: extra memory is one chunk.
    """
    X = np.asarray(X)
    if X.ndim != 2 or X.shape[0] == 0:
        raise InvalidInputError("X must be a nonempty n x D sample matrix")
    rows = FeatureRows(fm, X, dtype)
    total = np.zeros(fm.dim)
    for start in range(0, X.shape[0], MEAN_CHUNK_ROWS):
        total += rows[start : start + MEAN_CHUNK_ROWS].sum(axis=0, dtype=np.float64)
    return (total / X.shape[0]).astype(dtype)
