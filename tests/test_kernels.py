import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist, pdist

from kernelkl import GaussianPairSpec, InvalidInputError, kernels, sample_gaussian_pairs
from kernelkl.estimator import _BANDWIDTH_TAG, _FEATURES_TAG, DEFAULT_BANDWIDTH_SCALE, derive_seed, joint_and_product
from kernelkl.kernels import (
    BANDWIDTH_POINTS,
    CHOLESKY_TOL,
    DEFAULT_FEATURE_DIM,
    DISTANCE_BLOCK_ROWS,
    LANDMARK_POOL,
    MAP_BLOCK_ROWS,
    MAX_FACTOR_ENTRIES,
    MEAN_CHUNK_ROWS,
    KernelRows,
    KernelSpec,
    _factor_pool,
    _grouped_rows,
    _inverse_transpose,
    kernel_rows,
    mean_landmark_features,
    median_heuristic_bandwidth,
    pair_sq_distances,
    pivoted_cholesky,
    pooled_subsample,
    sample_landmarks,
    sq_distances,
)
from reference import build_gram, kernel_values, rbf_kernel

DIMS = [1, 2, 3, 8, 33]


def with_coincident_rows(rng, n, dim):
    Z = rng.normal(scale=rng.uniform(0.1, 10.0), size=(n, dim))
    Z[1] = Z[0]
    Z[-1] = Z[n // 2]
    return Z


class TestRbfKernel:
    def test_identity_is_one(self):
        spec = KernelSpec(bandwidth=3.7)
        x = np.array([1.0, -2.0, 0.5])
        assert rbf_kernel(x, x, spec) == 1.0

    def test_unit_separation(self):
        # exp(-0.5) for points one bandwidth apart
        assert rbf_kernel([0.0], [1.0], KernelSpec(1.0)) == pytest.approx(0.606531, abs=1e-6)

    def test_multidimensional(self):
        # ||x-y||^2 = 25, sigma = 5 -> exp(-0.5)
        assert rbf_kernel([0.0, 0.0], [3.0, 4.0], KernelSpec(5.0)) == pytest.approx(np.exp(-0.5))

    def test_symmetric(self):
        spec = KernelSpec(0.8)
        rng = np.random.default_rng(0)
        x, y = rng.normal(size=3), rng.normal(size=3)
        assert rbf_kernel(x, y, spec) == rbf_kernel(y, x, spec)

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInputError):
            rbf_kernel([np.nan], [0.0], KernelSpec(1.0))

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(InvalidInputError, match="dimension mismatch"):
            rbf_kernel([0.0, 1.0], [0.0], KernelSpec(1.0))

    def test_rejects_bad_bandwidth(self):
        with pytest.raises(InvalidInputError):
            KernelSpec(0.0)
        with pytest.raises(InvalidInputError):
            KernelSpec(-1.0)

    @pytest.mark.parametrize("bandwidth", [1e200, 1e-300])
    def test_rejects_bandwidth_whose_square_is_not_a_normal_float(self, bandwidth):
        # 1e200 squared overflows, 1e-300 squared underflows to 0
        with pytest.raises(InvalidInputError, match="normal float"):
            KernelSpec(bandwidth)


class TestPairwiseDistances:
    """The numpy distances must keep scipy.spatial.distance's bits, not just its values."""

    @pytest.mark.parametrize("dim", DIMS)
    def test_sq_distances_equal_cdist(self, dim):
        rng = np.random.default_rng(dim)
        A = with_coincident_rows(rng, 37, dim)
        B = np.vstack([A[:5], rng.normal(size=(24, dim))])
        assert np.array_equal(sq_distances(A, B), cdist(A, B, "sqeuclidean"))
        assert np.array_equal(sq_distances(A, A), cdist(A, A, "sqeuclidean"))

    @pytest.mark.parametrize("dim", DIMS)
    @pytest.mark.parametrize("n", [2, 3, DISTANCE_BLOCK_ROWS, 2 * DISTANCE_BLOCK_ROWS + 11])
    def test_pair_sq_distances_hold_pdist_values(self, dim, n):
        Z = with_coincident_rows(np.random.default_rng(n + dim), n, dim)
        sq = pair_sq_distances(Z)
        # the same multiset of values as pdist, in block order
        assert np.array_equal(np.sort(sq), np.sort(pdist(Z, "sqeuclidean")))
        assert np.array_equal(np.sort(np.sqrt(sq)), np.sort(pdist(Z)))

    def test_single_row_has_no_pairs(self):
        assert pair_sq_distances(np.zeros((1, 3))).shape == (0,)


class TestBuildGram:
    def test_coincident_points(self):
        K = build_gram(np.zeros((1, 1)), np.zeros((1, 1)), KernelSpec(1.0))
        assert np.array_equal(K.entries, np.ones((2, 2)))

    def test_two_point_values(self):
        K = build_gram(np.array([[0.0]]), np.array([[1.0]]), KernelSpec(1.0))
        expected = np.array([[1.0, 0.606531], [0.606531, 1.0]])
        np.testing.assert_allclose(K.entries, expected, atol=1e-6)

    def test_row_ordering(self):
        X = np.array([[0.0], [1.0]])
        Y = np.array([[2.0]])
        spec = KernelSpec(1.5)
        K = build_gram(X, Y, spec)
        assert K.n == 2 and K.m == 1
        assert K.entries[0, 2] == pytest.approx(rbf_kernel([0.0], [2.0], spec))
        assert K.entries[1, 2] == pytest.approx(rbf_kernel([1.0], [2.0], spec))

    def test_structural_invariants(self):
        rng = np.random.default_rng(42)
        X = rng.normal(size=(20, 3))
        Y = rng.normal(size=(30, 3))
        K = build_gram(X, Y, KernelSpec(1.2)).entries
        np.testing.assert_array_equal(K, K.T)
        np.testing.assert_array_equal(np.diag(K), np.ones(50))
        assert np.all(K > 0) and np.all(K <= 1)
        # PSD up to numerical tolerance
        assert np.linalg.eigvalsh(K).min() >= -1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInputError):
            build_gram(np.zeros((2, 2)), np.zeros((2, 3)), KernelSpec(1.0))

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            build_gram(np.zeros((0, 1)), np.zeros((2, 1)), KernelSpec(1.0))

    @pytest.mark.parametrize("dim", DIMS)
    def test_entries_equal_cdist_formula(self, dim):
        rng = np.random.default_rng(dim)
        X = with_coincident_rows(rng, 90, dim)
        Y = np.vstack([X[:3], rng.normal(size=(57, dim))])
        spec = KernelSpec(0.37 * dim)
        # the scipy reference, symmetrised and with the diagonal forced to 1
        Z = np.vstack([X, Y])
        expected = np.exp(-cdist(Z, Z, metric="sqeuclidean") / (2.0 * spec.bandwidth**2))
        expected = 0.5 * (expected + expected.T)
        np.fill_diagonal(expected, 1.0)
        assert np.array_equal(build_gram(X, Y, spec).entries, expected)

    def test_memory_peak_is_the_matrix_and_one_block(self):
        rng = np.random.default_rng(0)
        X, Y = rng.normal(size=(1_700, 2)), rng.normal(size=(1_300, 2))
        tracemalloc.start()
        try:
            K = build_gram(X, Y, KernelSpec(1.0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        matrix_bytes = K.size**2 * 8
        # no second (n+m)^2 array: the only scratch is DISTANCE_BLOCK_ROWS rows
        assert peak <= 1.1 * matrix_bytes


class TestPivotedCholesky:
    @staticmethod
    def factor(K, max_rank=None):
        return pivoted_cholesky(lambda i: K.entries[:, i], K.size, max_rank or K.size)

    @pytest.mark.parametrize("dim", DIMS)
    def test_reproduces_gram_within_tolerance(self, dim):
        rng = np.random.default_rng(dim)
        X = with_coincident_rows(rng, 70, dim)
        Y = np.vstack([X[:3], rng.normal(size=(47, dim))])
        K = build_gram(X, Y, KernelSpec(0.5 * np.sqrt(dim)))
        L, pivots = self.factor(K)
        assert np.abs(K.entries - L @ L.T).max() <= CHOLESKY_TOL
        # the pivot columns are reproduced up to rounding, not just to the tolerance
        np.testing.assert_allclose(K.entries[:, pivots], L @ L[pivots].T, rtol=0, atol=1e-12)
        assert np.linalg.norm(L, axis=1).max() <= 1 + 1e-12
        assert np.array_equal(np.tril(L[pivots]), L[pivots])
        assert len(set(pivots.tolist())) == len(pivots) == L.shape[1]

    def test_coincident_points_rank_one(self):
        Z = np.zeros((5, 2))
        L, pivots = self.factor(build_gram(Z, Z, KernelSpec(1.0)))
        assert L.shape == (10, 1) and pivots.tolist() == [0]
        assert np.array_equal(L, np.ones((10, 1)))

    def test_max_rank_caps_columns(self):
        rng = np.random.default_rng(3)
        K = build_gram(rng.normal(size=(30, 2)), rng.normal(size=(30, 2)), KernelSpec(0.3))
        L, pivots = self.factor(K, max_rank=4)
        assert L.shape == (60, 4) and len(pivots) == 4
        assert np.abs(K.entries - L @ L.T).max() > CHOLESKY_TOL

    def test_kernel_value_columns_equal_gram_columns(self):
        rng = np.random.default_rng(4)
        X, Y = with_coincident_rows(rng, 40, 3), rng.normal(size=(30, 3))
        spec = KernelSpec(1.1)
        K = build_gram(X, Y, spec)
        Z = np.vstack([X, Y])
        for i in (0, 1, 39, 69):
            assert np.array_equal(kernel_values(Z, Z[i : i + 1], spec)[:, 0], K.entries[:, i])

    def test_oversized_factor_refused_before_any_column(self):
        def column(i):
            raise AssertionError("no column may be computed")

        size = 2 * 5_001
        with pytest.raises(InvalidInputError, match=r"10002 pooled samples.*--mode primal.*--features"):
            pivoted_cholesky(column, size, 20_000)
        assert size * size > MAX_FACTOR_ENTRIES >= size * 1024


class TestLandmarks:
    @staticmethod
    def landmarks(dim, max_rank=512, n=3_000, shift=0.0, seed=0):
        rng = np.random.default_rng(dim)
        X = rng.normal(size=(n, dim)) + shift
        Y = rng.normal(loc=0.3, size=(n, dim)) + shift
        spec = KernelSpec(0.5 * np.sqrt(dim))
        return X, Y, spec, sample_landmarks(X, Y, spec, max_rank, seed=seed)

    @staticmethod
    def pool_factor(X, Y, spec, max_rank, seed):
        # the pool and factor sample_landmarks starts from, made again
        Z = pooled_subsample(X, Y, LANDMARK_POOL, seed)
        L, pivots = pivoted_cholesky(lambda i: kernel_values(Z, Z[i : i + 1], spec)[:, 0], len(Z), max_rank)
        return Z, L, pivots

    @pytest.mark.parametrize("dim", [1, 2, 5])
    @pytest.mark.parametrize("shift", [0.0, 1e4])
    def test_float32_rows_match_float64_kernel_values(self, dim, shift):
        # without centring on the pool mean, float32 cancellation in
        # ||x||^2 + ||p||^2 - 2 x.p is ~1e8 * 6e-8 at a shift of 1e4
        X, Y, spec, lm = self.landmarks(dim, shift=shift)
        Z, _, pivots = self.pool_factor(X, Y, spec, 512, 0)
        got = kernel_rows(lm, Y)
        assert got.dtype == np.float32 and got.shape == (len(Y), lm.rank)
        assert np.abs(got - kernel_values(Y, Z[pivots], spec)).max() <= 1e-5

    @pytest.mark.parametrize("dim", [1, 2, 5])
    def test_features_are_the_pool_factor_rows(self, dim):
        X, Y, spec, lm = self.landmarks(dim)
        Z, L, pivots = self.pool_factor(X, Y, spec, 512, 0)
        assert lm.rank == len(pivots) == L.shape[1]
        # phi(z) = k(z, P) W is z's row of L on the pool ...
        assert np.abs(kernel_values(Z, Z[pivots], spec) @ lm.whitener - L).max() <= 1e-5
        # ... and has norm at most 1, k(z, z), anywhere, also from float32 rows
        for rows in (Z, X, Y):
            assert np.linalg.norm(kernel_rows(lm, rows) @ lm.whitener, axis=1).max() <= 1 + 1e-5

    @pytest.mark.parametrize("dim", [1, 5])
    def test_whitener_is_the_inverse_transpose_of_the_pivot_block(self, dim):
        # forward substitution on L_PP: L_PP' W = I, and W agrees with
        # LAPACK's inverse to rounding relative to its largest entry
        X, Y, spec, lm = self.landmarks(dim)
        *_, L, pivots = _factor_pool(pooled_subsample(X, Y, LANDMARK_POOL, 0), spec, 512, np.float32, "")
        W = lm.whitener
        assert np.abs(L[pivots].T @ W - np.eye(lm.rank)).max() <= 1e-9
        assert np.abs(W - np.linalg.inv(L[pivots]).T).max() <= 1e-12 * np.abs(W).max()
        assert np.array_equal(np.triu(W), W)  # the transpose of a lower-triangular inverse

    def test_inverse_transpose_of_a_small_triangle(self):
        T = np.array([[2.0, 0.0, 0.0], [1.0, 4.0, 0.0], [-3.0, 0.5, 0.25]])
        np.testing.assert_allclose(_inverse_transpose(T), np.linalg.inv(T).T, rtol=1e-15, atol=1e-15)
        assert _inverse_transpose(np.array([[0.5]])).tolist() == [[2.0]]

    def test_rank_stops_at_tolerance_or_cap(self):
        # at D = 1 the factor of the pool reaches CHOLESKY_TOL well below the cap;
        # at D = 5 the cap stops it
        assert self.landmarks(1)[3].rank < 100
        assert self.landmarks(5, max_rank=64)[3].rank == 64

    def test_pool_is_a_seeded_subsample(self):
        X, Y, spec, lm = self.landmarks(2, n=1_500)
        assert np.array_equal(sample_landmarks(X, Y, spec, 512, seed=0).whitener, lm.whitener)
        assert not np.array_equal(sample_landmarks(X, Y, spec, 512, seed=1).whitener, lm.whitener)
        Z = pooled_subsample(X, Y, LANDMARK_POOL, 0)
        assert np.array_equal(lm.centre, Z.mean(axis=0))
        assert len(Z) == LANDMARK_POOL and len({tuple(z) for z in Z}) == LANDMARK_POOL


class TestMeanFeatureMap:
    # part of a chunk, one chunk, a chunk and a row, several chunks with and without a row more
    @pytest.mark.parametrize("n", [100, MEAN_CHUNK_ROWS, MEAN_CHUNK_ROWS + 1, 4096, 4097])
    def test_matches_materialised_mean(self, n):
        X, _, _, lm = TestLandmarks.landmarks(2, n=n)
        got = mean_landmark_features(lm, X)
        assert got.dtype == np.float32 and got.shape == (lm.rank,)
        # the reference averages the same float32 kernel rows in float64, then whitens
        expected = kernel_rows(lm, X).mean(axis=0, dtype=np.float64) @ lm.whitener
        np.testing.assert_allclose(got, expected, rtol=1e-5, atol=1e-6)

    @pytest.mark.parametrize("distinct", [3, MEAN_CHUNK_ROWS + 5])
    def test_counts_weight_the_mean(self, distinct):
        # distinct rows with counts give the mean over the expanded rows, to rounding
        _, _, _, lm = TestLandmarks.landmarks(2, n=100)
        rng = np.random.default_rng(distinct)
        rows, counts = rng.normal(size=(distinct, 2)), rng.integers(1, 50, size=distinct)
        got = mean_landmark_features(lm, rows, counts)
        expected = mean_landmark_features(lm, np.repeat(rows, counts, axis=0))
        assert got.dtype == np.float32
        np.testing.assert_allclose(got, expected, rtol=1e-6, atol=1e-7)

    def test_rejects_empty_input(self):
        _, _, _, lm = TestLandmarks.landmarks(2, n=100)
        with pytest.raises(InvalidInputError):
            mean_landmark_features(lm, np.zeros((0, 2)))

    # one row, one block, one chunk, a chunk and a row, eight chunks and a row
    @pytest.mark.parametrize("n", [1, MAP_BLOCK_ROWS, MEAN_CHUNK_ROWS, MEAN_CHUNK_ROWS + 1, 4097])
    @pytest.mark.parametrize("view", [True, False])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_equals_chunk_sums_in_order_bit_for_bit(self, n, view, dtype):
        # X in either float dtype, and either contiguous or a strided column
        # view of a wider row table, as split_pairs may hand it on
        _, _, _, lm = TestLandmarks.landmarks(2, n=100)
        table = np.random.default_rng(n).normal(size=(n, 3)).astype(dtype)
        X = table[:, 1:] if view else table[:, 1:].copy()
        assert np.shares_memory(X, table) is view
        got = mean_landmark_features(lm, X)
        # each 512-row chunk's kernel rows made whole and summed in float64, the
        # chunk sums added in chunk order, and W applied once to their mean
        total = np.zeros(lm.rank)
        for start in range(0, n, MEAN_CHUNK_ROWS):
            chunk = np.ascontiguousarray(X[start : start + MEAN_CHUNK_ROWS])
            total += kernel_rows(lm, chunk).sum(axis=0, dtype=np.float64)
        assert got.tobytes() == ((total / n) @ lm.whitener).astype(np.float32).tobytes()


class TestFeatureMap:
    # phi(z) = k(z, P) W, the landmark features the estimator ships, at points
    # drawn apart from the pool its landmarks come from
    @staticmethod
    def feature_map(dim, bandwidth, seed=0):
        rng = np.random.default_rng(100 + dim)
        lm = sample_landmarks(rng.normal(size=(1_500, dim)), rng.normal(size=(1_500, dim)), KernelSpec(bandwidth), 512, seed)

        def phi(z):
            return kernel_rows(lm, np.atleast_2d(z)) @ lm.whitener

        return lm, phi

    def test_deterministic(self):
        (lm1, _), (lm2, _) = self.feature_map(2, 1.0, seed=7), self.feature_map(2, 1.0, seed=7)
        for field in ("centre", "exponent", "whitener"):
            assert np.array_equal(getattr(lm1, field), getattr(lm2, field))

    def test_different_seeds_differ(self):
        (lm1, _), (lm2, _) = self.feature_map(2, 1.0, seed=7), self.feature_map(2, 1.0, seed=8)
        assert not np.array_equal(lm1.exponent, lm2.exponent)

    def test_coordinate_bound(self):
        # every coordinate, and the whole vector, within k(x, x) = 1
        _, phi = self.feature_map(3, 0.9)
        features = phi(np.random.default_rng(1).normal(size=(200, 3)))
        assert np.linalg.norm(features, axis=1).max() <= 1 + 1e-5

    def test_inner_product_approximates_kernel(self):
        _, phi = self.feature_map(1, 1.0, seed=3)
        approx = (phi(np.array([0.0])) @ phi(np.array([1.0])).T).item()
        assert abs(approx - 0.6065) <= 0.05

    def test_self_inner_product_near_one(self):
        _, phi = self.feature_map(1, 1.0, seed=3)
        features = phi(np.array([0.7]))
        assert abs((features @ features.T).item() - 1.0) <= 0.05

    def test_mean_approximation_error(self):
        # 100 random pairs: mean |phi(x).phi(y) - k(x,y)| <= 0.03
        spec = KernelSpec(1.3)
        _, phi = self.feature_map(2, spec.bandwidth, seed=11)
        rng = np.random.default_rng(12)
        errs = []
        for _ in range(100):
            x, y = rng.normal(size=2), rng.normal(size=2)
            errs.append(abs((phi(x) @ phi(y).T).item() - rbf_kernel(x, y, spec)))
        assert np.mean(errs) <= 0.03

    def test_matrix_apply_matches_rowwise(self):
        _, phi = self.feature_map(3, 1.0, seed=5)
        Z = np.random.default_rng(6).normal(size=(10, 3))
        rows = np.vstack([phi(z) for z in Z])
        # the kernel rows agree bit for bit (TestFeatureRows); W's product, to rounding
        np.testing.assert_allclose(phi(Z), rows, rtol=0, atol=1e-12)


class TestFeatureRows:
    # the landmark kernel rows the estimator streams for Q: a row's bits do not
    # depend on the rows made with it; samples in either float dtype, which the
    # kernel functions take as given
    @pytest.mark.parametrize("dim", [1, 2, 20])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_rows_equal_stored_rows(self, dim, dtype):
        _, Y, _, lm = TestLandmarks.landmarks(dim, max_rank=128)
        Y = Y.astype(dtype)
        stored = kernel_rows(lm, Y)
        rows = KernelRows(lm, Y)
        assert rows.shape == stored.shape and rows.dtype == stored.dtype == np.float32
        draws = np.random.default_rng(0).integers(0, len(Y), size=512)
        for key in (draws, draws[:1], draws[:2], draws[:64], slice(100, 612), slice(None)):
            assert rows[key].tobytes() == stored[key].tobytes()

    @staticmethod
    def mi_landmarks():
        # the landmarks of estimate_mi at D = 1 + 1: rank 183, not a multiple
        # of the BLAS vector width, where a one-row product has other bits
        pairs = sample_gaussian_pairs(GaussianPairSpec(dimension=1, correlation=0.8, sample_count=3000, seed=1))
        X, Y = joint_and_product(pairs, [0], [1], seed=1)
        spec = KernelSpec(DEFAULT_BANDWIDTH_SCALE * median_heuristic_bandwidth(X, Y, seed=derive_seed(1, _BANDWIDTH_TAG)))
        return sample_landmarks(X, Y, spec, DEFAULT_FEATURE_DIM, seed=derive_seed(1, _FEATURES_TAG))

    @pytest.mark.parametrize("dim", [1, 2, "1+1"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_rows_equal_stored_rows_at_block_edges(self, dim, dtype):
        # the stored matrix ends in a one-row tail; a minibatch of a block and
        # a row does the same; one and two rows make the smallest blocks
        if dim == "1+1":
            lm, dim = self.mi_landmarks(), 2
        else:
            _, _, _, lm = TestLandmarks.landmarks(dim, max_rank=128)
        Y = np.random.default_rng(dim).normal(size=(5 * MAP_BLOCK_ROWS + 1, dim)).astype(dtype)
        stored = kernel_rows(lm, Y)
        rows = KernelRows(lm, Y)
        draws = np.random.default_rng(1).integers(0, len(Y), size=MAP_BLOCK_ROWS + 1)
        for key in (slice(None), draws, draws[:1], draws[:2], slice(-1, None)):
            assert rows[key].tobytes() == stored[key].tobytes()


@pytest.fixture()
def all_pairs_calls(monkeypatch):
    """The sizes ``median_heuristic_bandwidth`` asks ``pair_sq_distances`` for: empty on the weighted route."""
    calls = []

    def spy(Z):
        calls.append(Z.shape[0])
        return pair_sq_distances(Z)

    monkeypatch.setattr(kernels, "pair_sq_distances", spy)
    return calls


def distinct_pair_median(Z):
    """np.median of pdist(Z), or over the pairs of distinct rows where more than half the pairs coincide."""
    d = pdist(Z)
    med = float(np.median(d))
    return med if med > 0 else float(np.median(d[d > 0]))


class TestMedianHeuristic:
    def test_deterministic(self):
        rng = np.random.default_rng(0)
        X, Y = rng.normal(size=(2000, 2)), rng.normal(size=(2000, 2))
        assert median_heuristic_bandwidth(X, Y, seed=4) == median_heuristic_bandwidth(X, Y, seed=4)

    def test_scale_adaptive(self):
        rng = np.random.default_rng(0)
        X, Y = rng.normal(size=(200, 1)), rng.normal(size=(200, 1))
        small = median_heuristic_bandwidth(X, Y)
        big = median_heuristic_bandwidth(10 * X, 10 * Y)
        assert big == pytest.approx(10 * small)

    def test_degenerate_fallback(self):
        X = np.zeros((5, 1))
        assert median_heuristic_bandwidth(X, X) == 1.0

    @pytest.mark.parametrize("dim", DIMS)
    @pytest.mark.parametrize("seed", [0, 7])
    def test_equals_median_of_pdist_on_subsample(self, dim, seed):
        rng = np.random.default_rng(dim)
        X = with_coincident_rows(rng, 700, dim)
        Y = rng.normal(size=(600, dim))
        # the same seeded subsample of 1000 from the 1300 pooled points
        Z = np.vstack([X, Y])
        Z_sub = Z[np.random.default_rng(seed).choice(Z.shape[0], size=1000, replace=False)]
        assert median_heuristic_bandwidth(X, Y, seed=seed) == float(np.median(pdist(Z_sub)))

    def test_subsample_is_gathered_without_stacking_the_samples(self):
        # stacking 1M pooled rows of D = 4 would take 32 MB; the 1000-point
        # distances (4 MB) are memory-mapped, outside tracemalloc's count
        rng = np.random.default_rng(5)
        X, Y = rng.normal(size=(600_000, 4)), rng.normal(size=(400_000, 4))
        tracemalloc.start()
        try:
            median_heuristic_bandwidth(X, Y, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * (X.nbytes + Y.nbytes)

    def test_distances_are_partitioned_in_place(self):
        # the 499 500 squared distances of 1000 points (4 MB) are memory-mapped,
        # outside tracemalloc's count; a partitioned copy of them would add 4 MB
        rng = np.random.default_rng(6)
        X, Y = rng.normal(size=(600_000, 1)), rng.normal(size=(400_000, 1))
        tracemalloc.start()
        try:
            median_heuristic_bandwidth(X, Y, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2e6

    @pytest.mark.parametrize("pooled", [2, 3, 7, 8, 131])
    def test_equals_median_of_pdist_odd_and_even_pair_counts(self, pooled):
        # 7 points give 21 pairs (one middle value), 8 give 28 (two)
        # rounding makes ties among the distances
        Z = np.round(np.random.default_rng(pooled).normal(size=(pooled, 2)), 1)
        assert median_heuristic_bandwidth(Z[:1], Z[1:]) == float(np.median(pdist(Z)))

    @pytest.mark.parametrize("pooled", [40, 1000, 5000])
    def test_binary_by_three_level_table(self, pooled, all_pairs_calls):
        rng = np.random.default_rng(pooled)
        Z = np.column_stack([rng.integers(0, 2, pooled), rng.integers(0, 3, pooled)]).astype(float)
        X, Y = Z[: pooled // 3], Z[pooled // 3 :]
        Z_sub = pooled_subsample(X, Y, BANDWIDTH_POINTS, seed=3)
        assert median_heuristic_bandwidth(X, Y, seed=3) == float(np.median(pdist(Z_sub)))
        assert all_pairs_calls == []

    @pytest.mark.parametrize("cells", [6, 100, 250, 251, 400, 700])
    def test_lattice_on_either_side_of_the_rule(self, cells, all_pairs_calls):
        # 1000 points on the first ``cells`` points of a 32-wide lattice; the
        # weighted route takes at most a quarter of the points distinct
        rng = np.random.default_rng(cells)
        lattice = np.stack(np.divmod(np.arange(cells), 32), axis=1).astype(float)
        Z = lattice[np.concatenate([np.arange(cells), rng.integers(0, cells, BANDWIDTH_POINTS - cells)])]
        assert median_heuristic_bandwidth(Z[:400], Z[400:]) == float(np.median(pdist(Z)))
        assert all_pairs_calls == ([] if 4 * cells <= BANDWIDTH_POINTS else [BANDWIDTH_POINTS])

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("decimals", [0, 1, 2])
    def test_rounded_normals(self, dim, decimals):
        Z = np.round(np.random.default_rng(dim + 10 * decimals).normal(size=(BANDWIDTH_POINTS, dim)), decimals)
        assert median_heuristic_bandwidth(Z[:500], Z[500:]) == float(np.median(pdist(Z)))

    def test_signed_zeros_are_one_value(self, all_pairs_calls):
        rng = np.random.default_rng(9)
        Z = rng.integers(0, 2, size=(600, 2)).astype(float)
        Z[(Z == 0) & (rng.random(Z.shape) < 0.5)] = -0.0
        assert np.signbit(Z[Z == 0]).any() and not np.signbit(Z[Z == 0]).all()
        rows, counts = _grouped_rows(Z)
        assert len(rows) == 4 and counts.sum() == 600
        assert median_heuristic_bandwidth(Z[:300], Z[300:]) == float(np.median(pdist(Z)))
        assert all_pairs_calls == []

    @pytest.mark.parametrize("grouped", [True, False])
    @pytest.mark.parametrize("pooled", range(12, 18))
    def test_odd_and_even_pair_counts(self, pooled, grouped, all_pairs_calls):
        # 66, 78, 91, 105, 120 and 136 pairs over three distinct points; a
        # pool below BANDWIDTH_POINTS keeps its order, and where no two
        # consecutive rows coincide it takes the all-pairs route
        cells = np.arange(pooled) % 3
        Z = np.array([0.0, 1.0, 3.0])[np.sort(cells) if grouped else cells, None]
        assert median_heuristic_bandwidth(Z[:5], Z[5:]) == float(np.median(pdist(Z)))
        assert all_pairs_calls == ([] if grouped else [pooled])

    def test_grouped_rows_are_the_distinct_rows_and_counts(self):
        rng = np.random.default_rng(15)
        Z = rng.integers(-2, 3, size=(5000, 3)).astype(float)
        rows, counts = _grouped_rows(Z)
        expected_rows, expected_counts = np.unique(Z, axis=0, return_counts=True)
        assert rows.tobytes() == expected_rows.tobytes() and counts.tolist() == expected_counts.tolist()

    def test_grouped_codes_stay_below_the_row_count(self):
        # 40 columns of 3 values would make 3^40 codes, beyond an intp;
        # ranking the combined codes keeps them below n
        Z = np.random.default_rng(16).integers(0, 3, size=(50, 40)).astype(float)
        Z[25:] = Z[:25]
        rows, counts = _grouped_rows(Z)
        assert len(rows) == 25 and counts.tolist() == [2] * 25
        assert {r.tobytes() for r in rows} == {r.tobytes() for r in Z[:25]}

    @pytest.mark.parametrize("n", [BANDWIDTH_POINTS + 1, 100_000])
    def test_large_categorical_sample_is_grouped_whole(self, n):
        # rows past the strided probe are grouped too, in the counts
        rng = np.random.default_rng(n)
        Z = rng.integers(0, 3, size=(n, 2)).astype(float)
        Z[-1] = [7.0, 7.0]
        rows, counts = kernels._few_distinct_rows(Z)
        assert len(rows) == 10 and counts.sum() == n and rows[-1].tolist() == [7.0, 7.0] and counts[-1] == 1

    @pytest.mark.parametrize("decimals", [1, 2])
    def test_large_sample_is_grouped_only_where_its_probe_is(self, monkeypatch, decimals):
        # 100k rounded normals: at 1 decimal the probe of 1000 rows has ~60
        # distinct values and all rows are grouped; at 2 decimals it has ~530,
        # more than a quarter, and only the probe is
        sizes = []

        def spy(Z, grouped_rows=kernels._grouped_rows):
            sizes.append(Z.shape[0])
            return grouped_rows(Z)

        monkeypatch.setattr(kernels, "_grouped_rows", spy)
        Z = np.round(np.random.default_rng(17).normal(size=(100_000, 1)), decimals)
        grouped = kernels._few_distinct_rows(Z)
        assert sizes == ([BANDWIDTH_POINTS, 100_000] if decimals == 1 else [BANDWIDTH_POINTS])
        assert (grouped is not None) == (decimals == 1)

    def test_continuous_input_is_not_sorted(self, monkeypatch):
        def refuse(Z):
            raise AssertionError("continuous rows were grouped")

        monkeypatch.setattr(kernels, "_grouped_rows", refuse)
        rng = np.random.default_rng(14)
        X, Y = rng.normal(size=(3000, 2)), rng.normal(size=(3000, 2))
        assert median_heuristic_bandwidth(X, Y) > 0

    @pytest.mark.parametrize(
        "counts",
        [
            (6, 3),  # 36 pairs, 18 coincident: the middle two are 0 and 3
            (7, 4),  # 55 pairs, 27 coincident: the middle one is the first 3
            (8, 4),  # 66 pairs, 34 coincident: both middle pairs coincide
            (9, 5),  # 91 pairs, 46 coincident: the middle pair coincides
        ],
    )
    def test_middle_ranks_at_the_edge_of_the_coincident_pairs(self, counts, all_pairs_calls):
        Z = np.repeat([[0.0], [3.0]], counts, axis=0)
        expected = {(6, 3): 1.5, (7, 4): 3.0, (8, 4): 3.0, (9, 5): 3.0}[counts]
        assert median_heuristic_bandwidth(Z[:2], Z[2:]) == distinct_pair_median(Z) == expected
        assert all_pairs_calls == []

    @pytest.mark.parametrize("distinct", [10, 260])
    def test_zero_median_reads_the_pairs_of_distinct_points(self, distinct, all_pairs_calls):
        # more than half the pairs coincide at the origin, on either route
        Z = np.zeros((BANDWIDTH_POINTS, 2))
        Z[: distinct - 1] = np.random.default_rng(distinct).normal(size=(distinct - 1, 2))
        assert np.median(pdist(Z)) == 0.0
        assert median_heuristic_bandwidth(Z[:500], Z[500:]) == distinct_pair_median(Z)
        assert all_pairs_calls == ([] if 4 * distinct <= BANDWIDTH_POINTS else [BANDWIDTH_POINTS])

    def test_zero_median_scales_with_the_data(self):
        # 10% positive predictions and 10% of rows in the minority group: most
        # pooled pairs coincide, and the bandwidth still follows the data's units
        rng = np.random.default_rng(12)
        Z = np.column_stack([rng.random(5000) < 0.1, rng.random(5000) < 0.1]).astype(float)
        small = median_heuristic_bandwidth(Z[:2500], Z[2500:])
        assert small == 1.0
        assert median_heuristic_bandwidth(1000 * Z[:2500], 1000 * Z[2500:]) == 1000 * small

    def test_one_outlier_sets_the_scale(self):
        Z = np.zeros((BANDWIDTH_POINTS, 1))
        Z[0] = 5.0
        assert median_heuristic_bandwidth(Z[:1], Z[1:]) == 5.0

    def test_categorical_input_makes_no_array_of_all_pairs(self, monkeypatch):
        # the 499 500 pair distances would be memory-mapped, outside
        # tracemalloc's count, so the maps are watched as well
        maps = []

        def spy(shape, dtype):
            maps.append(shape)
            return mapped_empty(shape, dtype)

        monkeypatch.setattr(kernels, "mapped_empty", spy)
        rng = np.random.default_rng(13)
        X = np.column_stack([rng.integers(0, 2, 600_000), rng.integers(0, 3, 600_000)]).astype(float)
        Y = np.column_stack([rng.integers(0, 2, 400_000), rng.integers(0, 3, 400_000)]).astype(float)
        tracemalloc.start()
        try:
            median_heuristic_bandwidth(X, Y, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert maps == []
        # half the 4 MB pair array: validating X takes a 1.2 MB mask
        assert peak < BANDWIDTH_POINTS * (BANDWIDTH_POINTS - 1) // 2 * 8 / 2


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=1, max_value=4),
    st.floats(min_value=0.3, max_value=3.0, allow_nan=False),
    st.integers(min_value=0, max_value=1000),
)
def test_gram_invariants_property(dim, bandwidth, seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(rng.integers(1, 15), dim))
    Y = rng.normal(size=(rng.integers(1, 15), dim))
    K = build_gram(X, Y, KernelSpec(bandwidth)).entries
    assert np.array_equal(K, K.T)
    assert np.all(np.diag(K) == 1.0)
    assert np.all((K > 0) & (K <= 1))
    assert np.linalg.eigvalsh(K).min() >= -1e-8
