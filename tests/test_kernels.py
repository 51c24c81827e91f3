import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist, pdist

from kernelkl import InvalidInputError
from kernelkl.kernels import (
    CHOLESKY_TOL,
    DISTANCE_BLOCK_ROWS,
    MAX_GRAM_ROWS,
    MEAN_CHUNK_ROWS,
    FeatureRows,
    KernelSpec,
    apply_feature_map,
    build_gram,
    kernel_values,
    mapped_empty,
    mean_feature_map,
    median_heuristic_bandwidth,
    pair_sq_distances,
    pivoted_cholesky,
    rbf_kernel,
    sample_feature_map,
    sq_distances,
)

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

    def test_rejects_bad_bandwidth(self):
        with pytest.raises(InvalidInputError):
            KernelSpec(0.0)
        with pytest.raises(InvalidInputError):
            KernelSpec(-1.0)


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

    def test_oversized_pool_refused_before_allocating(self):
        assert MAX_GRAM_ROWS == 10_000
        X, Y = np.zeros((5_001, 1)), np.zeros((5_000, 1))
        tracemalloc.start()
        try:
            with pytest.raises(InvalidInputError, match=r"10001 x 10001.*--mode primal"):
                build_gram(X, Y, KernelSpec(1.0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one float64 copy of that Gram matrix would be 800 MB
        assert peak < 10_000_000

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
        assert size * size > MAX_GRAM_ROWS**2 >= size * 1024


class TestMeanFeatureMap:
    # part of a chunk, one chunk, a chunk and a row, several chunks with and without a row more
    @pytest.mark.parametrize("n", [100, MEAN_CHUNK_ROWS, MEAN_CHUNK_ROWS + 1, 4096, 4097])
    def test_matches_materialised_mean(self, n):
        fm = sample_feature_map(2, 64, KernelSpec(0.7), seed=1)
        X = np.random.default_rng(n).normal(size=(n, 2))
        got = mean_feature_map(fm, X, dtype=np.float32)
        assert got.dtype == np.float32
        # the reference averages the same float32 features in float64, as the stream does
        expected = apply_feature_map(fm, X, dtype=np.float32).mean(axis=0, dtype=np.float64)
        np.testing.assert_allclose(got, expected, rtol=1e-6)

    def test_rejects_empty_input(self):
        fm = sample_feature_map(2, 8, KernelSpec(1.0), seed=0)
        with pytest.raises(InvalidInputError):
            mean_feature_map(fm, np.zeros((0, 2)))


class TestFeatureMap:
    def test_deterministic(self):
        spec = KernelSpec(1.0)
        fm1 = sample_feature_map(2, 64, spec, seed=7)
        fm2 = sample_feature_map(2, 64, spec, seed=7)
        assert np.array_equal(fm1.frequencies, fm2.frequencies)
        assert np.array_equal(fm1.offsets, fm2.offsets)

    def test_different_seeds_differ(self):
        spec = KernelSpec(1.0)
        fm1 = sample_feature_map(2, 64, spec, seed=7)
        fm2 = sample_feature_map(2, 64, spec, seed=8)
        assert not np.array_equal(fm1.frequencies, fm2.frequencies)

    def test_coordinate_bound(self):
        fm = sample_feature_map(3, 128, KernelSpec(0.9), seed=0)
        rng = np.random.default_rng(1)
        phi = apply_feature_map(fm, rng.normal(size=3))
        bound = np.sqrt(2.0 / 128)
        assert np.all(np.abs(phi) <= bound + 1e-12)

    def test_zero_offsets_at_origin(self):
        fm = sample_feature_map(2, 16, KernelSpec(1.0), seed=0)
        fm_zero = type(fm)(frequencies=fm.frequencies, offsets=np.zeros(16))
        phi = apply_feature_map(fm_zero, np.zeros(2))
        np.testing.assert_allclose(phi, np.sqrt(2.0 / 16))

    def test_inner_product_approximates_kernel(self):
        spec = KernelSpec(1.0)
        fm = sample_feature_map(1, 1024, spec, seed=3)
        x, y = np.array([0.0]), np.array([1.0])
        approx = apply_feature_map(fm, x) @ apply_feature_map(fm, y)
        assert abs(approx - 0.6065) <= 0.05

    def test_self_inner_product_near_one(self):
        fm = sample_feature_map(1, 1024, KernelSpec(1.0), seed=3)
        phi = apply_feature_map(fm, np.array([0.7]))
        assert abs(phi @ phi - 1.0) <= 0.05

    def test_mean_approximation_error(self):
        # 100 random pairs at d=2048: mean |phi(x).phi(y) - k(x,y)| <= 0.03
        spec = KernelSpec(1.3)
        fm = sample_feature_map(2, 2048, spec, seed=11)
        rng = np.random.default_rng(12)
        errs = []
        for _ in range(100):
            x, y = rng.normal(size=2), rng.normal(size=2)
            approx = apply_feature_map(fm, x) @ apply_feature_map(fm, y)
            errs.append(abs(approx - rbf_kernel(x, y, spec)))
        assert np.mean(errs) <= 0.03

    def test_matrix_apply_matches_rowwise(self):
        fm = sample_feature_map(3, 32, KernelSpec(1.0), seed=5)
        rng = np.random.default_rng(6)
        Z = rng.normal(size=(10, 3))
        batch = apply_feature_map(fm, Z)
        rows = np.stack([apply_feature_map(fm, z) for z in Z])
        np.testing.assert_allclose(batch, rows)

    def test_dimension_mismatch(self):
        fm = sample_feature_map(3, 8, KernelSpec(1.0), seed=0)
        with pytest.raises(InvalidInputError):
            apply_feature_map(fm, np.zeros(4))

    def test_invalid_sizes(self):
        with pytest.raises(InvalidInputError):
            sample_feature_map(0, 8, KernelSpec(1.0))
        with pytest.raises(InvalidInputError):
            sample_feature_map(2, 0, KernelSpec(1.0))

    @staticmethod
    def reference(fm, Z, dtype, scale):
        proj = Z.astype(dtype) @ fm.frequencies.T.astype(dtype)
        proj += fm.offsets.astype(dtype)
        np.cos(proj, out=proj)
        proj *= scale
        return proj

    def test_float32_scaled_in_float32(self):
        # the sqrt(2/d) scale is a float32 scalar: a float64 one would run the
        # product in float64 and round it back (NEP 50), different bits
        fm = sample_feature_map(3, 256, KernelSpec(0.8), seed=2)
        Z = np.random.default_rng(3).normal(size=(200, 3))
        got = apply_feature_map(fm, Z, dtype=np.float32)
        assert got.dtype == np.float32
        assert got.tobytes() == self.reference(fm, Z, np.float32, np.float32(np.sqrt(2.0 / 256))).tobytes()

    def test_float64_unchanged(self):
        fm = sample_feature_map(3, 256, KernelSpec(0.8), seed=2)
        Z = np.random.default_rng(3).normal(size=(200, 3))
        got = apply_feature_map(fm, Z)
        assert got.dtype == np.float64
        assert got.tobytes() == self.reference(fm, Z, np.float64, np.sqrt(2.0 / 256)).tobytes()


    def test_mapped_out_array_gets_the_same_bits(self):
        fm = sample_feature_map(2, 1024, KernelSpec(0.8), seed=4)
        Z = np.random.default_rng(5).normal(size=(300, 2))
        out = mapped_empty((300, 1024), np.float32)
        assert out.shape == (300, 1024) and out.dtype == np.float32 and out.flags.writeable
        got = apply_feature_map(fm, Z, dtype=np.float32, out=out)
        assert got is out
        assert out.tobytes() == apply_feature_map(fm, Z, dtype=np.float32).tobytes()


class TestFeatureRows:
    @pytest.mark.parametrize("dim", [1, 2, 20])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_rows_equal_stored_rows(self, dim, dtype):
        # at d = 1024 each row of a product of two or more rows comes out of
        # BLAS with the bits it has in the whole product
        fm = sample_feature_map(dim, 1024, KernelSpec(0.6 * np.sqrt(dim)), seed=dim)
        Y = np.random.default_rng(dim).normal(size=(3_000, dim))
        stored = apply_feature_map(fm, Y, dtype=dtype)
        rows = FeatureRows(fm, Y, dtype)
        assert rows.shape == stored.shape and rows.dtype == stored.dtype
        draws = np.random.default_rng(0).integers(0, len(Y), size=512)
        for key in (draws, draws[:2], draws[:64], slice(100, 612), slice(None)):
            assert rows[key].tobytes() == stored[key].tobytes()


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
        # distances and their partitioned copy take 8 MB
        rng = np.random.default_rng(5)
        X, Y = rng.normal(size=(600_000, 4)), rng.normal(size=(400_000, 4))
        tracemalloc.start()
        try:
            median_heuristic_bandwidth(X, Y, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * (X.nbytes + Y.nbytes)

    @pytest.mark.parametrize("pooled", [2, 3, 7, 8, 131])
    def test_equals_median_of_pdist_odd_and_even_pair_counts(self, pooled):
        # 7 points give 21 pairs (one middle value), 8 give 28 (two)
        # rounding makes ties among the distances
        Z = np.round(np.random.default_rng(pooled).normal(size=(pooled, 2)), 1)
        assert median_heuristic_bandwidth(Z[:1], Z[1:]) == float(np.median(pdist(Z)))


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
