"""Gaussian RBF kernel, Gram matrices, pivoted Cholesky factors, and random Fourier feature maps.

The feature map follows Rahimi-Recht: phi_i(x) = sqrt(2/d) * cos(w_i . x + b_i)
with w_i ~ N(0, sigma^-2 I) and b_i ~ U[0, 2pi), so that phi(x) . phi(y)
approximates exp(-||x - y||^2 / (2 sigma^2)).  Replacing the (n+m)^2 Gram
matrix with (n+m) x d features drops the per-step optimization cost from
quadratic to linear in the pooled sample count.  Every feature row is made
by one fused pass per block of MAP_BLOCK_ROWS rows: the product
[x, 1] @ [W'; b], with the offsets folded in as one more row, then cos and the
scale in place while the block is in cache.  A feature row is a fixed
function of its sample, so an n x d feature matrix need never be stored:
``FeatureRows`` maps the rows it is indexed with, and ``mean_feature_map``
sums chunks of rows, the second half of them on a helper thread when a
second CPU is free.  The rows of a pivoted Cholesky factor
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
import os
import sys
import threading
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError

DEFAULT_FEATURE_DIM = 1024
#: Rows per fused product, cos and scale of the feature map: 256 KB at d = 1024
#: in float32, so a block stays in L2 through all three.  At D <= 3 a block's
#: product (64 x (D + 1) x 1024 multiply-adds) is below the 4 x 65536 at which
#: OpenBLAS starts threads of its own, so it runs on the calling thread.
MAP_BLOCK_ROWS = 64
#: Rows ``mean_feature_map`` maps and sums in float64 at a time: 2 MB per chunk
#: at d = 1024 in float32, the size of a default streamed Q minibatch.
MEAN_CHUNK_ROWS = 512
#: Largest pooled sample count ``build_gram`` accepts.  The float64 Gram matrix
#: is then 0.8 GB; building it holds that one copy plus one block of rows.
#: ``pivoted_cholesky`` keeps its factor within the same MAX_GRAM_ROWS**2 entries.
MAX_GRAM_ROWS = 10_000
#: ``pivoted_cholesky`` stops once every diagonal residual of K - L L' is at most this.
CHOLESKY_TOL = 1e-6
#: Pooled points ``median_heuristic_bandwidth`` subsamples to.
BANDWIDTH_POINTS = 1000
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
    inside the block, then the block against every later row.  The result is
    4 MB for 1000 rows; it is ``mapped_empty``, so freeing it leaves glibc's
    heap as it was (see there).
    """
    n = Z.shape[0]
    out = mapped_empty((n * (n - 1) // 2,), float)
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


def median_heuristic_bandwidth(X, Y, seed=0):
    """Median pairwise distance over a subsample of <= BANDWIDTH_POINTS pooled points.

    Deterministic given the seed.  Falls back to 1.0 when all sampled points
    coincide (zero median), so downstream code never divides by zero.
    """
    X, Y = as_sample_pair(X, Y)
    n, pooled = X.shape[0], X.shape[0] + Y.shape[0]
    if pooled <= BANDWIDTH_POINTS:
        idx = np.arange(pooled)
    else:
        idx = np.random.default_rng(seed).choice(pooled, size=BANDWIDTH_POINTS, replace=False)
    # rows idx of the pooled [X; Y], gathered without stacking the samples
    Z = np.where((idx < n)[:, None], X[np.minimum(idx, n - 1)], Y[np.maximum(idx - n, 0)])
    sq = pair_sq_distances(Z)
    med = 0.0
    if sq.size:
        # np.median(np.sqrt(sq)) bit for bit: sqrt is monotone, so the middle
        # distances are the roots of the middle squared distances, and one
        # partition in place finds them (np.median partitions twice for an
        # even size, and np.partition would copy the distances first)
        half = sq.size // 2
        sq.partition(half)
        middle = [sq[half]] if sq.size % 2 else [sq[:half].max(), sq[half]]
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
    size = math.prod(shape)
    # a map of one byte at least: mmap refuses an empty one
    return np.frombuffer(mmap.mmap(-1, max(size * dtype.itemsize, 1)), dtype=dtype, count=size).reshape(shape)


def _augmented_frequencies(fm, dtype):
    """[W'; b] in ``dtype``: the frequencies with the offsets as one more row, so [x, 1] @ [W'; b] = x W' + b."""
    wb = np.empty((fm.input_dim + 1, fm.dim), dtype)
    wb[:-1] = fm.frequencies.T
    wb[-1] = fm.offsets
    return wb


def _map_rows(fm, wb, x, out=None):
    """Features of x (a D-vector or an n x D matrix) in wb's dtype; wb is ``_augmented_frequencies(fm, dtype)``.

    One fused pass per block of MAP_BLOCK_ROWS rows: the product [x, 1] @ [W'; b],
    then cos and the sqrt(2/d) scale in place while the block is in cache.  The
    product's last multiply-add, 1 * b, rounds as the separate + b would, so each
    row of a block of two or more rows has the bits of x W' + b.  A one-row tail
    joins the block before it; a lone row is a matrix-vector product, which
    rounds the folded offset differently, so it keeps the product and sum apart.
    """
    x = np.asarray(x)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != fm.input_dim:
        raise InvalidInputError(f"input dimension {x.shape} does not match feature map ({fm.input_dim})")
    n, dtype = x.shape[0], wb.dtype
    if out is None:
        out = np.empty((n, fm.dim), dtype)
    # a scalar of the array's own dtype: a float64 one would run a float32
    # array's product in float64 and cast it back (NEP 50)
    scale = dtype.type(np.sqrt(2.0 / fm.dim))
    ones = np.ones((min(n, MAP_BLOCK_ROWS + 1), fm.input_dim + 1), dtype)  # [x, 1] of one block
    start = 0
    while start < n:
        stop = n if n - start <= MAP_BLOCK_ROWS + 1 else start + MAP_BLOCK_ROWS
        block = out[start:stop]
        if stop - start == 1:
            np.matmul(x[start:stop].astype(dtype), fm.frequencies.T.astype(dtype), out=block)
            block += wb[-1]
        else:
            ones[: stop - start, :-1] = x[start:stop]
            np.matmul(ones[: stop - start], wb, out=block)
        np.cos(block, out=block)
        block *= scale
        start = stop
    return out[0] if single else out


def apply_feature_map(fm, x, dtype=float, out=None):
    """Map one D-vector (or an n x D matrix, row-wise) into feature space.

    ``dtype=np.float32`` computes the projection in single precision, which
    roughly halves the cost for large sample matrices.  ``out``, an n x d
    array of that dtype, receives the features of a matrix.
    """
    return _map_rows(fm, _augmented_frequencies(fm, dtype), x, out)


class FeatureRows:
    """The rows of ``apply_feature_map(fm, samples, dtype)``, mapped when indexed.

    ``rows[idx]`` is ``apply_feature_map(fm, samples[idx], dtype)`` and holds
    only the rows asked for.  Both map in blocks of two or more rows, so a key
    of two or more rows has the bits of the same rows of the stored n x d
    matrix wherever BLAS computes each row of a product alike whatever the
    number of rows: on OpenBLAS, at d = 1024.  A single row (a matrix-vector
    product) or a small product (such as d = 64 with D = 33) may round
    differently in the last bit.
    """

    def __init__(self, fm, samples, dtype=float):
        self.fm = fm
        self.samples = samples
        self.dtype = np.dtype(dtype)
        self.shape = (samples.shape[0], fm.dim)
        self._wb = _augmented_frequencies(fm, self.dtype)

    def __getitem__(self, idx):
        return _map_rows(self.fm, self._wb, self.samples[idx])


def spare_cpu():
    """Whether a helper thread here would have a CPU of its own.

    True when the process may run on more than one CPU and is not a
    multiprocessing worker, whose pool already spreads its work over the CPUs.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    # a process that never imported multiprocessing is not one of its workers
    mp = sys.modules.get("multiprocessing")
    return cpus > 1 and (mp is None or mp.parent_process() is None)


def mean_feature_map(fm, X, dtype=float):
    """Mean of ``apply_feature_map(fm, X, dtype)`` over the rows of X, in that dtype.

    Rows are mapped MEAN_CHUNK_ROWS at a time into one reused buffer, each
    chunk is summed in float64 and the chunk sums are added in chunk order, so
    the n x d feature matrix is never stored.  When ``spare_cpu()``, the
    second half of the chunks is mapped on a helper thread, joined before
    this returns; its sums are added after the first half's, so the result
    has the same bits whether or not the pass is split.  Until then they are
    held: d float64s per two chunks, 7.8 MB for a million rows at d = 1024.
    """
    X = np.asarray(X)
    if X.ndim != 2 or X.shape[0] == 0:
        raise InvalidInputError("X must be a nonempty n x D sample matrix")
    wb = _augmented_frequencies(fm, dtype)
    starts = range(0, X.shape[0], MEAN_CHUNK_ROWS)

    def chunk_sums(part):
        # mapped: a helper thread's malloc'd buffer would stay resident in its arena
        buf = mapped_empty((min(X.shape[0], MEAN_CHUNK_ROWS), fm.dim), wb.dtype)
        for start in part:
            rows = X[start : start + MEAN_CHUNK_ROWS]
            yield _map_rows(fm, wb, rows, buf[: len(rows)]).sum(axis=0, dtype=np.float64)

    half = len(starts) // 2 if len(starts) > 1 and spare_cpu() else len(starts)
    later, failed = [], []

    def map_later_half():
        try:
            later.extend(chunk_sums(starts[half:]))
        except Exception as exc:  # raised again in the calling thread
            failed.append(exc)

    helper = threading.Thread(target=map_later_half) if half < len(starts) else None
    total = np.zeros(fm.dim)
    if helper is not None:
        helper.start()
    try:
        for chunk_sum in chunk_sums(starts[:half]):
            total += chunk_sum
    finally:
        if helper is not None:
            helper.join()
    if failed:
        raise failed[0]
    for chunk_sum in later:
        total += chunk_sum
    return (total / X.shape[0]).astype(dtype)
