"""Gaussian RBF kernel: pivoted Cholesky factors of a pool and landmark (Nystrom) features.

The rows of a pivoted Cholesky factor K ~= L L' of a pool of rows are
exact-kernel features on that pool, built from kernel columns on demand
without forming K.  Dual mode factors every pooled sample and uses the rows
of L.  Landmark features (primal mode, Williams & Seeger 2001) extend them to
any point: the same factor of a seeded subsample of the pooled rows picks
landmarks P, and phi(z) = k(z, P) L_PP^-T, which on the subsample is z's row
of L.  Rows of k(z, P) are made in float32, one product and one exp per
block of MAP_BLOCK_ROWS rows, and are a fixed function of their sample, so
no n x r matrix of them need be stored: ``KernelRows`` makes the rows it is
indexed with, and ``mean_landmark_features`` sums chunks of rows.

Pairwise distances (the median-heuristic bandwidth) are computed in numpy,
one coordinate at a time in coordinate order as sum_k (a_k - b_k)^2.  That is
the order scipy.spatial.distance sums in, so the results are bit-identical to
scipy's ``pdist``/``cdist``, without the cost of importing scipy.  Where few
of the subsampled points are distinct, the median is read from the distances
between distinct points weighted by how many pairs each stands for, which is
the same multiset of values as all the pairs'.
"""

import math
import mmap
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError

#: Most landmark features in primal mode, and most pivoted-Cholesky features in
#: dual mode.  Below D = 3 the factor of a 2000-row pool reaches CHOLESKY_TOL
#: well before it (rank ~180 at D = 1 + 1); at D = 3 and 5 it stops here.
DEFAULT_FEATURE_DIM = 512
#: Rows per product and exp of ``kernel_rows``: 128 KB at r = 512 in float32,
#: so a block stays in L2 through both.  On a 2-core VM a 512-row call (one
#: minibatch) took 373 us blocked against 513 us as one product at r = 512,
#: but 152 against 117 us at r ~ 170.  The blocks keep larger calls' times
#: steady: at r = 183 a 4096-row call took 0.86-1.5 ms blocked, against
#: 0.73-8.1 ms as one product (10th-90th percentiles, two processes).
MAP_BLOCK_ROWS = 64
#: Rows ``mean_landmark_features`` makes and sums in float64 at a time.  At
#: 4096 rows a 100k-row CLI run's peak RSS rose by 3 MB.
MEAN_CHUNK_ROWS = 512
#: Pooled rows ``sample_landmarks`` subsamples to and chooses landmarks from.
LANDMARK_POOL = 2000
#: Most entries of a ``pivoted_cholesky`` factor: 0.8 GB in float64.
MAX_FACTOR_ENTRIES = 10**8
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
        if not math.sqrt(np.finfo(float).tiny) <= self.bandwidth <= math.sqrt(np.finfo(float).max):
            raise InvalidInputError(f"bandwidth must be finite and positive, with a square that is a normal float, "
                                    f"got {self.bandwidth}")


def _as_2d(samples, name):
    arr = np.asarray(samples, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2 or 0 in arr.shape:
        raise InvalidInputError(f"{name} must be a nonempty n x D sample matrix, D >= 1")
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
    # one mask for every block: building it per block (or np.triu_indices)
    # took 0.4-0.6 ms of a 1000-row call
    below = np.tri(DISTANCE_BLOCK_ROWS, k=-1, dtype=bool)
    pos = 0
    for start in range(0, n, DISTANCE_BLOCK_ROWS):
        block, later = Z[start : start + DISTANCE_BLOCK_ROWS], Z[start + DISTANCE_BLOCK_ROWS :]
        inner = sq_distances(block, block)[below[: len(block), : len(block)]]
        out[pos : pos + inner.size] = inner
        pos += inner.size
        cross = out[pos : pos + len(block) * len(later)]
        sq_distances(block, later, out=cross.reshape(len(block), len(later)))
        pos += cross.size
    return out


def _distinct_rows(Z):
    """The distinct rows of Z and how often each occurs.

    Rows are compared by value, so -0.0 and 0.0 are one value; the squares
    of their differences to any row are the same bits.
    """
    Z = Z[np.lexsort(Z.T)]
    first = np.empty(Z.shape[0], dtype=bool)
    first[0] = True
    np.any(Z[1:] != Z[:-1], axis=1, out=first[1:])
    starts = np.flatnonzero(first)
    return Z[starts], np.diff(starts, append=Z.shape[0])


def _few_distinct_rows(Z):
    """``_distinct_rows(Z)`` where at most a quarter of the n rows of Z are distinct, else None.

    With so few distinct, sum_i c_i (c_i - 1) / n >= 3 of the n - 1 pairs of
    consecutive rows coincide on average where Z is in random order (a drawn
    subsample), so Z is sorted only where some do.  Continuous data skips the
    sort, whose code alone raised a 100k-row CLI run's peak RSS by 0.15 MB.
    The route costs time, never bits.
    """
    if not np.all(Z[1:] == Z[:-1], axis=1).any():
        return None
    rows, counts = _distinct_rows(Z)
    return (rows, counts) if 4 * rows.shape[0] <= Z.shape[0] else None


def _distinct_pairs(rows, counts):
    """Squared distances of every pair of distinct rows, with the number of sampled pairs c_i c_j each stands for."""
    below = np.tri(rows.shape[0], k=-1, dtype=bool)
    return sq_distances(rows, rows)[below], np.multiply.outer(counts, counts)[below]


def _median_distance(sq):
    """np.median(np.sqrt(sq)) bit for bit, partitioning sq in place.

    sqrt is monotone, so the middle distances are the roots of the middle
    squared distances, and one partition in place finds them (np.median
    partitions twice for an even size, and np.partition would copy first).
    """
    half = sq.size // 2
    sq.partition(half)
    middle = [sq[half]] if sq.size % 2 else [sq[:half].max(), sq[half]]
    return float(np.mean(np.sqrt(middle)))


def _weighted_median_distance(sq, weights, zeros):
    """``_median_distance`` of the multiset holding sq[i] weights[i] times and ``zeros`` zeros.

    The middle ranks are found in the cumulative weights of the sorted
    values, so the multiset is never expanded.
    """
    sq = np.append(sq, 0.0)
    order = np.argsort(sq)
    cum = np.cumsum(np.append(weights, zeros)[order])
    total = int(cum[-1])
    half = total // 2
    ranks = [half] if total % 2 else [half - 1, half]
    return float(np.mean(np.sqrt(sq[order[np.searchsorted(cum, ranks, side="right")]])))


def pivoted_cholesky(column, size, max_rank):
    """Greedy pivoted Cholesky factor K ~= L L' of a size x size kernel matrix with unit diagonal.

    ``column(i)`` returns column i of K; only pivot columns are requested,
    so K is never formed.  Each step pivots on the largest diagonal residual
    of K - L L' and the factor stops at max_rank columns or once every
    residual is at most CHOLESKY_TOL (Fine & Scheinberg 2001; Harbrecht,
    Peters & Schneider 2012).  Returns (L, pivots) with L of shape
    size x rank: K[:, pivots] equals L @ L[pivots].T, L[pivots] is lower
    triangular, and every row of L has norm at most 1, the kernel's diagonal.

    A factor of more than MAX_FACTOR_ENTRIES entries is refused before
    anything is allocated.  L' is filled row by row, so only the rows
    reached take memory.
    """
    cap = min(size, max_rank)
    if size * cap > MAX_FACTOR_ENTRIES:
        raise InvalidInputError(
            f"dual mode factors {size} pooled samples into up to {cap} features "
            f"({size * cap * 8 / 1e9:.1f} GB), above the limit of {MAX_FACTOR_ENTRIES} entries; "
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


def pooled_subsample(X, Y, size, seed):
    """All rows of the pooled [X; Y], or a seeded sample of ``size`` of them without replacement.

    The rows are gathered without stacking the samples.
    """
    n, pooled = X.shape[0], X.shape[0] + Y.shape[0]
    if pooled <= size:
        idx = np.arange(pooled)
    else:
        idx = np.random.default_rng(seed).choice(pooled, size=size, replace=False)
    return np.where((idx < n)[:, None], X[np.minimum(idx, n - 1)], Y[np.maximum(idx - n, 0)])


def median_heuristic_bandwidth(X, Y, seed=0):
    """Median pairwise distance over a subsample of <= BANDWIDTH_POINTS pooled points.

    Deterministic given the seed.  Where more than half the sampled pairs
    coincide, so that the median is zero, it is the median over the pairs
    of distinct points instead; only when every sampled point coincides
    (or every distance underflows) is it 1.0, so downstream code never
    divides by zero.

    Where at most a quarter of the n sampled points are distinct, as in
    categorical data (``_few_distinct_rows``), the median comes from the
    u(u - 1)/2 distances between distinct points, each weighted by the
    c_i c_j pairs it stands for (``_weighted_median_distance``): on a 2-core
    VM a 6-cell table took 0.5 ms against 5.4 ms for all 499 500 pairs.  A
    pair's squared distance depends only on the two rows' values, so both
    routes select from the same multiset and return the same bits.  The
    weighted route sorts, which costs more per pair than a partition: on
    1000 points with u distinct 1-D normal values it took 2.4 ms against
    5.4 ms at u = 250, 4.0 against 5.1 ms at u = 333, and 5.7 against
    5.1 ms at u = 400.
    """
    X, Y = as_sample_pair(X, Y)
    Z = pooled_subsample(X, Y, BANDWIDTH_POINTS, seed)
    # the two pooled rows ``as_sample_pair`` guarantees make at least one pair
    grouped = _few_distinct_rows(Z)
    if grouped:
        rows, counts = grouped
        med = _weighted_median_distance(*_distinct_pairs(rows, counts), int((counts * (counts - 1) // 2).sum()))
    else:
        med = _median_distance(pair_sq_distances(Z))
    if med == 0.0:
        # at least half the pairs coincide: drop them
        rows, counts = grouped or _distinct_rows(Z)
        if rows.shape[0] > 1:
            med = _weighted_median_distance(*_distinct_pairs(rows, counts), 0)
    return med if med > 0 else 1.0


def mapped_empty(shape, dtype):
    """An uninitialised array in an anonymous memory map of its own, outside the C heap.

    Freeing it unmaps it at once.  glibc, freeing a malloc'd array of up to
    32 MiB, raises its mmap threshold, puts later arrays of that size on the
    heap and keeps the heap resident: ten D = 3 + 3 MI estimates on 8k-20k
    rows, in mixed order in one process, peaked at 98 MB with mapped stored Q
    matrices and at 117 MB with malloc'd ones.  The <= 7 MB Q matrices of a
    10k-row fairness audit showed no difference (peak RSS 49.8-50.0 MB
    malloc'd, 49.8-51.0 MB mapped).
    """
    dtype = np.dtype(dtype)
    size = math.prod(shape)
    # a map of one byte at least: mmap refuses an empty one
    return np.frombuffer(mmap.mmap(-1, max(size * dtype.itemsize, 1)), dtype=dtype, count=size).reshape(shape)


@dataclass(frozen=True)
class LandmarkMap:
    """Nystrom features phi(z) = k(z, P) W on landmark rows P, with W = L_PP^-T.

    ``centre`` is the mean c of the pool the landmarks were chosen from,
    ``exponent`` the (D + 2) x r float32 matrix
    [(P - c)' / s^2; -1 / (2 s^2); -||P - c||^2 / (2 s^2)], so that
    [z - c, ||z - c||^2, 1] @ exponent = -||z - p||^2 / (2 s^2) for each
    landmark p, and ``whitener`` the r x r W.  On the pool, phi(z)
    is z's row of its pivoted Cholesky factor L; anywhere, ||phi(z)|| <= 1.
    """

    centre: np.ndarray
    exponent: np.ndarray
    whitener: np.ndarray

    @property
    def rank(self):
        return self.whitener.shape[0]


def _factor_pool(Z, spec, max_rank, dtype, kernel_use):
    """Centre the pool Z on its mean c and factor its kernel matrix, K ~= L L' (``pivoted_cholesky``).

    Each kernel column is one float64 product on the centred rows,
    exp(z . p / s^2 - ||z||^2 / (2 s^2) - ||p||^2 / (2 s^2)): at D = 10, 512
    columns took 8 ms on a 2-core VM, against 32 ms for differences summed one
    coordinate at a time.  Returns (c, Z - c, -||Z - c||^2 / (2 s^2), L, pivots).

    Before the factor, a pool of radius R = max ||z - c|| is refused where an
    exponent of that form, computed in ``dtype``, may round by more than 1: to
    first order by (D + 4) eps / 2 times its terms' size, at most 2 R^2 / s^2
    within R of c.  ``kernel_use`` names those exponents in the refusal.
    """
    centre = Z.mean(axis=0)
    Z = Z - centre
    s2 = spec.bandwidth**2
    sq = np.square(Z).sum(axis=1)
    if not (Z.shape[1] + 4) * float(np.finfo(dtype).eps) * float(sq.max()) / float(s2) <= 1.0:  # Python floats overflow to inf quietly
        raise InvalidInputError(f"bandwidth {spec.bandwidth:.3g} is too small for {kernel_use}")
    half_sq = sq / (-2.0 * s2)

    def column(i):
        out = Z @ (Z[i] / s2)
        out += half_sq
        out += half_sq[i]
        return np.exp(out, out=out)

    L, pivots = pivoted_cholesky(column, Z.shape[0], max_rank)
    return centre, Z, half_sq, L, pivots


def _inverse_transpose(T):
    """T^-T for a lower-triangular T with a positive diagonal, by forward substitution.

    Row i of T^-1 is (e_i - T[i, :i] T^-1[:i]) / T[i, i], and is zero right
    of column i.  numpy's LAPACK inverse took 0.12-0.16 s instead of about
    2 ms in some fresh processes on a 2-core VM; this loop takes 0.6 ms at
    rank 129 and 12 ms at rank 512 there.
    """
    r = T.shape[0]
    inv = np.zeros((r, r))
    for i in range(r):
        np.matmul(T[i, :i], inv[:i, :i], out=inv[i, :i])
        inv[i, :i] /= -T[i, i]
        inv[i, i] = 1.0 / T[i, i]
    return inv.T


def sample_landmarks(X, Y, spec, max_rank, seed=0):
    """Landmarks by pivoted Cholesky on a seeded subsample of <= LANDMARK_POOL pooled rows.

    The factor (``_factor_pool``) stops at max_rank landmarks or at
    CHOLESKY_TOL; W = L_PP^-T is computed once, by forward substitution
    (``_inverse_transpose``).  The pool is refused where the
    float32 exponent of ``kernel_rows`` may round by more than 1; rows farther
    from c than the pool lie farther from every landmark and err no more in value.
    """
    centre, Z, half_sq, L, pivots = _factor_pool(
        pooled_subsample(X, Y, LANDMARK_POOL, seed), spec, max_rank, np.float32,
        "the float32 kernel rows of primal mode; use a larger --bandwidth or --mode dual",
    )
    s2 = spec.bandwidth**2
    # C order: on OpenBLAS, an F-order exponent gave a row made alone other bits than in a block
    exponent = np.vstack([Z[pivots].T / s2, np.full(len(pivots), -0.5 / s2), half_sq[pivots]]).astype(np.float32, order="C")
    return LandmarkMap(centre=centre, exponent=exponent, whitener=_inverse_transpose(L[pivots]))


def kernel_rows(lm, x, out=None):
    """k(x, P) for every row of x and landmark p, as a len(x) x r float32 array (``out`` if given).

    exp([x - c, ||x - c||^2, 1] @ lm.exponent), one product and one exp per
    block of MAP_BLOCK_ROWS rows.  Centring on the pool mean c keeps the
    three terms of the exponent near the size of ||x - p||^2 rather than of
    ||x||^2, whose float32 cancellation would swamp it for data far from the
    origin.
    """
    n = x.shape[0]
    if out is None:
        out = np.empty((n, lm.rank), np.float32)
    # numpy makes a one-row product with another BLAS kernel (gemv) than a
    # block, with other bits: a one-row tail joins the block before it, and a
    # lone row is made in a block with a copy of itself
    if n == 1:
        out[:] = kernel_rows(lm, np.repeat(x, 2, axis=0))[:1]
        return out
    d = x - lm.centre
    aug = np.ones((n, lm.exponent.shape[0]), np.float32)
    aug[:, :-2] = d
    aug[:, -2] = np.square(d).sum(axis=1)
    for start in range(0, n - 1, MAP_BLOCK_ROWS):
        stop = start + MAP_BLOCK_ROWS if start + MAP_BLOCK_ROWS < n - 1 else n
        block = np.matmul(aug[start:stop], lm.exponent, out=out[start:stop])
        np.exp(block, out=block)
    return out


def mean_landmark_features(lm, X):
    """Mean of phi(x) = k(x, P) W over the rows of X, in float32.

    Kernel rows are made MEAN_CHUNK_ROWS at a time and summed in float64, so
    no n x r matrix is stored; W is applied once, to their mean.
    """
    if X.shape[0] == 0:
        raise InvalidInputError("X must be a nonempty n x D sample matrix")
    total = np.zeros(lm.rank)
    for start in range(0, X.shape[0], MEAN_CHUNK_ROWS):
        total += kernel_rows(lm, X[start : start + MEAN_CHUNK_ROWS]).sum(axis=0, dtype=np.float64)
    return ((total / X.shape[0]) @ lm.whitener).astype(np.float32)


class KernelRows:
    """The rows of ``kernel_rows(lm, samples)``, made when indexed.

    ``rows[idx]`` is ``kernel_rows(lm, samples[idx])`` and holds only the
    rows asked for.  A row's bits do not depend on the rows made with it
    wherever BLAS computes each row of a product alike: on OpenBLAS, for the
    D + 2 terms of the exponent.
    """

    dtype = np.dtype(np.float32)

    def __init__(self, lm, samples):
        self.lm = lm
        self.samples = samples
        self.shape = (samples.shape[0], lm.rank)

    def __getitem__(self, idx):
        return kernel_rows(self.lm, self.samples[idx])
