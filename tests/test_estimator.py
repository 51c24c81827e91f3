import tracemalloc

import numpy as np
import pytest

from kernelkl import (
    EstimatorConfig,
    GaussianPairSpec,
    InvalidInputError,
    OptimizerConfig,
    analytic_mi,
    estimate_kl,
    estimate_mi,
    sample_gaussian_pairs,
)
from kernelkl import estimator
from kernelkl.estimator import _OPTIMIZER_TAG, derive_seed, joint_and_product, split_pairs
from kernelkl.kernels import DEFAULT_FEATURE_DIM, KernelRows, KernelSpec, build_gram, sample_landmarks
from kernelkl.optimize import run_dual


def gaussian_sets(n, shift=0.0, scale=1.0, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 1))
    Y = rng.normal(loc=shift, scale=scale, size=(n, 1))
    return X, Y


def gaussian_sets_2d(n, seed):
    # at D = 2 the landmark factor stops near rank 200, as at D = 1 + 1 in MI
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, 2)), rng.normal(loc=0.5, size=(n, 2))


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, 3) == derive_seed(42, 3)

    def test_tags_decorrelate(self):
        assert derive_seed(42, 1) != derive_seed(42, 2)

    def test_seeds_decorrelate(self):
        assert derive_seed(1, 1) != derive_seed(2, 1)


class TestEstimateKl:
    def test_degenerate_identical_points(self):
        Z = np.full((10, 2), 3.0)
        result = estimate_kl(Z, Z)
        assert result.kl_estimate == 0.0
        assert result.degenerate
        assert result.converged
        # the trace holds one value per iteration, here none
        assert result.iterations == 0
        assert len(result.trace.kl_values) == 0
        assert result.trace.estimate == 0.0

    def test_mean_shift_oracle(self):
        # KL(N(0,1) || N(1,1)) = 0.5
        X, Y = gaussian_sets(10_000, shift=1.0, seed=1)
        result = estimate_kl(X, Y, EstimatorConfig(optimizer=OptimizerConfig(seed=1)))
        assert result.kl_estimate == pytest.approx(0.5, abs=0.10)

    def test_variance_change_oracle(self):
        # KL(N(0,1) || N(0,2)) = log 2 + 1/8 - 1/2 = 0.318147
        X, Y = gaussian_sets(10_000, scale=2.0, seed=2)
        result = estimate_kl(X, Y, EstimatorConfig(optimizer=OptimizerConfig(seed=2)))
        assert result.kl_estimate == pytest.approx(np.log(2) + 0.125 - 0.5, abs=0.10)

    def test_same_distribution_near_zero(self):
        X, Y = gaussian_sets(10_000, seed=3)
        result = estimate_kl(X, Y, EstimatorConfig(optimizer=OptimizerConfig(seed=3)))
        assert abs(result.kl_estimate) <= 0.05

    def test_dual_mode_mean_shift(self):
        X, Y = gaussian_sets(200, shift=1.0, seed=4)
        # a smaller step than the default, run for longer
        cfg = EstimatorConfig(mode="dual", optimizer=OptimizerConfig(step_size=0.05, max_iter=1000, seed=4))
        result = estimate_kl(X, Y, cfg)
        assert result.kl_estimate == pytest.approx(0.5, abs=0.25)

    @pytest.mark.parametrize("minibatch", [16, 512])
    def test_dual_trace_equals_run_dual_on_the_gram_matrix(self, minibatch):
        # kernel columns computed on demand and columns of build_gram give the
        # same factor, so the two runs agree bit for bit
        rng = np.random.default_rng(12)
        X, Y = rng.normal(size=(60, 2)), rng.normal(loc=0.5, size=(45, 2))
        cfg = EstimatorConfig(mode="dual", optimizer=OptimizerConfig(max_iter=150, minibatch=minibatch, seed=7))
        result = estimate_kl(X, Y, cfg)
        K = build_gram(X, Y, KernelSpec(result.bandwidth))
        _, trace = run_dual(K, cfg.optimizer.with_seed(derive_seed(7, _OPTIMIZER_TAG)))
        assert np.array_equal(result.trace.kl_values, trace.kl_values)
        assert result.kl_estimate == trace.estimate

    def test_dual_refuses_oversized_factor_before_allocating(self):
        # 10002 pooled rows x 10002 features is above MAX_GRAM_ROWS**2 entries
        X, Y = gaussian_sets(5_001, seed=13)
        cfg = EstimatorConfig(mode="dual", feature_dim=20_000)
        tracemalloc.start()
        try:
            with pytest.raises(InvalidInputError, match="--features"):
                estimate_kl(X, Y, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10_000_000

    def test_unknown_mode(self):
        with pytest.raises(InvalidInputError, match="mode must be 'primal' or 'dual'"):
            EstimatorConfig(mode="exact")

    @pytest.mark.parametrize("mode", ["primal", "dual"])
    def test_feature_dim_must_be_positive(self, mode):
        with pytest.raises(InvalidInputError, match="feature_dim must be >= 1"):
            EstimatorConfig(mode=mode, feature_dim=0)

    @pytest.mark.parametrize("bandwidth", [float("nan"), float("inf"), 0.0, -1.0])
    def test_bandwidth_must_be_finite_and_positive(self, bandwidth):
        with pytest.raises(InvalidInputError, match="bandwidth must be finite and positive"):
            EstimatorConfig(bandwidth=bandwidth)

    def test_explicit_bandwidth_respected(self):
        X, Y = gaussian_sets(100, shift=1.0, seed=5)
        result = estimate_kl(X, Y, EstimatorConfig(bandwidth=2.5))
        assert result.bandwidth == 2.5

    def test_seed_determinism(self):
        X, Y = gaussian_sets(500, shift=0.5, seed=6)
        cfg = EstimatorConfig(optimizer=OptimizerConfig(seed=99))
        r1 = estimate_kl(X, Y, cfg)
        r2 = estimate_kl(X, Y, cfg)
        assert r1.kl_estimate == r2.kl_estimate
        assert np.array_equal(r1.trace.kl_values, r2.trace.kl_values)

    def test_result_metadata(self):
        X, Y = gaussian_sets(60, seed=7)
        result = estimate_kl(X, Y)
        assert result.sample_sizes == (60, 60)
        assert result.bandwidth > 0
        assert result.iterations == result.trace.iterations

    def test_one_dimensional_inputs_accepted(self):
        rng = np.random.default_rng(8)
        r = estimate_kl(rng.normal(size=100), rng.normal(size=100))
        assert np.isfinite(r.kl_estimate)

    def test_invalid_inputs(self):
        with pytest.raises(InvalidInputError):
            estimate_kl(np.zeros((1, 1)), np.zeros((5, 1)))
        with pytest.raises(InvalidInputError):
            estimate_kl(np.zeros((5, 1)), np.zeros((5, 2)))
        with pytest.raises(InvalidInputError):
            estimate_kl(np.array([[np.nan]] * 5), np.zeros((5, 1)))

    def test_non_finite_message_names_the_side(self):
        Y = np.zeros((5, 1))
        Y[3, 0] = np.inf
        with pytest.raises(InvalidInputError, match="^Y contains non-finite values$"):
            estimate_kl(np.zeros((5, 1)), Y)

    @staticmethod
    def spy_on_rank(monkeypatch):
        ranks = []

        def spy(*args, **kwargs):
            landmarks = sample_landmarks(*args, **kwargs)
            ranks.append(landmarks.rank)
            return landmarks

        monkeypatch.setattr(estimator, "sample_landmarks", spy)
        return ranks

    def test_primal_peak_memory_is_one_feature_matrix(self, monkeypatch):
        # P enters through its streamed mean embedding, so no P-side n x r matrix
        # is held (numpy reports its buffers to tracemalloc; the stored Q-side
        # kernel rows are an anonymous memory map, which it does not see).  The
        # peak is the factor of the landmark pool, 512 x 2000 float64s.
        n = 50_000
        X, Y = gaussian_sets_2d(n, seed=9)
        ranks = TestEstimateKl.spy_on_rank(monkeypatch)
        cfg = EstimatorConfig(optimizer=OptimizerConfig(max_iter=20, seed=9))
        tracemalloc.start()
        try:
            estimate_kl(X, Y, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert n * ranks[0] * 4 <= estimator.MAX_STORED_KERNEL_BYTES
        assert peak < n * ranks[0] * 4


class TestStoredOrStreamedQ:
    """Q kernel rows are stored when small or full batch, else made per minibatch."""

    class Captured(Exception):
        pass

    def q_argument(self, monkeypatch, m, feature_dim, minibatch):
        def spy(mean_phi_x, PhiY, cfg, whitener):
            raise self.Captured(PhiY, whitener)

        monkeypatch.setattr(estimator, "run_primal", spy)
        X, Y = gaussian_sets(m, seed=1)
        with pytest.raises(self.Captured) as caught:
            estimate_kl(X, Y, EstimatorConfig(feature_dim=feature_dim, optimizer=OptimizerConfig(minibatch=minibatch)))
        return caught.value.args

    @pytest.mark.parametrize("m, minibatch, streamed", [(100, 16, False), (101, 16, True), (101, 101, False)])
    def test_rule(self, monkeypatch, m, minibatch, streamed):
        # 100 rows x 16 float32 kernel rows fill the cap exactly; at D = 1 the
        # landmark factor of ~200 pooled rows reaches the cap of 16
        monkeypatch.setattr(estimator, "MAX_STORED_KERNEL_BYTES", 100 * 16 * 4)
        PhiY, whitener = self.q_argument(monkeypatch, m, 16, minibatch)
        assert isinstance(PhiY, KernelRows) == streamed
        assert PhiY.shape == (m, 16) and PhiY.dtype == np.float32
        assert whitener.shape == (16, 16)

    def test_cap_placement(self):
        # 20k rows at the default rank cap of 512 (D >= 3) are stored; the
        # 100k-row CLI run at D = 1 + 1, rank ~180, streams its kernel rows
        assert 20_000 * DEFAULT_FEATURE_DIM * 4 <= estimator.MAX_STORED_KERNEL_BYTES < 100_000 * 130 * 4

    @pytest.mark.parametrize("seed", [0, 1])
    def test_streamed_estimate_is_the_stored_one(self, monkeypatch, seed):
        X, Y = gaussian_sets(4_000, shift=0.8, seed=seed)
        cfg = EstimatorConfig(optimizer=OptimizerConfig(max_iter=100, minibatch=256, seed=seed))
        stored = estimate_kl(X, Y, cfg)
        monkeypatch.setattr(estimator, "MAX_STORED_KERNEL_BYTES", 0)
        streamed = estimate_kl(X, Y, cfg)
        assert stored.kl_estimate == streamed.kl_estimate
        assert stored.trace.kl_values.tobytes() == streamed.trace.kl_values.tobytes()
        assert (stored.iterations, stored.converged) == (streamed.iterations, streamed.converged)

    def test_streamed_peak_memory_is_a_tenth_of_the_matrix(self, monkeypatch):
        # the peak is the factor of the landmark pool (512 x 2000 float64s,
        # allocated up front), then one minibatch or chunk of kernel rows, not
        # the ~150 MB Q matrix
        n = 200_000
        X, Y = gaussian_sets_2d(n, seed=9)
        ranks = TestEstimateKl.spy_on_rank(monkeypatch)
        cfg = EstimatorConfig(optimizer=OptimizerConfig(max_iter=20, seed=9))
        monkeypatch.setattr(estimator, "MAX_STORED_KERNEL_BYTES", 0)
        tracemalloc.start()
        try:
            estimate_kl(X, Y, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * n * ranks[0] * 4


class TestSplitPairs:
    def test_basic_split(self):
        pairs = np.arange(12.0).reshape(3, 4)
        xs, ys = split_pairs(pairs, [0, 1], [2, 3])
        np.testing.assert_array_equal(xs, pairs[:, :2])
        np.testing.assert_array_equal(ys, pairs[:, 2:])

    def test_overlap_rejected(self):
        with pytest.raises(InvalidInputError):
            split_pairs(np.zeros((3, 4)), [0, 1], [1, 2])

    def test_out_of_range_rejected(self):
        with pytest.raises(InvalidInputError):
            split_pairs(np.zeros((3, 4)), [0], [4])

    def test_pairs_must_be_two_dimensional(self):
        with pytest.raises(InvalidInputError, match="2-D"):
            split_pairs(np.zeros(4), [0], [1])

    def test_empty_role_rejected(self):
        with pytest.raises(InvalidInputError):
            split_pairs(np.zeros((3, 4)), [], [1])


class TestJointAndProduct:
    def test_joint_preserves_rows(self):
        pairs = np.arange(20.0).reshape(5, 4)
        joint, product = joint_and_product(pairs, [0, 1], [2, 3], seed=0)
        np.testing.assert_array_equal(joint, pairs)
        # the x-block is untouched; the y-block is a permutation of the original rows
        np.testing.assert_array_equal(product[:, :2], pairs[:, :2])
        np.testing.assert_array_equal(np.sort(product[:, 2], axis=0), pairs[:, 2])

    def test_permutation_seeded(self):
        pairs = np.random.default_rng(0).normal(size=(50, 2))
        _, p1 = joint_and_product(pairs, [0], [1], seed=5)
        _, p2 = joint_and_product(pairs, [0], [1], seed=5)
        _, p3 = joint_and_product(pairs, [0], [1], seed=6)
        np.testing.assert_array_equal(p1, p2)
        assert not np.array_equal(p1, p3)

    def test_too_few_rows(self):
        with pytest.raises(InvalidInputError):
            joint_and_product(np.zeros((3, 2)), [0], [1], seed=0)

    def test_blocks_match_split_pairs(self):
        pairs = np.random.default_rng(1).normal(size=(40, 5))
        joint, product = joint_and_product(pairs, [3, 0], [4, 1], seed=2)
        xs, ys = split_pairs(pairs, [3, 0], [4, 1])
        perm = np.random.default_rng(derive_seed(2, estimator._PERMUTE_TAG)).permutation(40)
        np.testing.assert_array_equal(joint, np.hstack([xs, ys]))
        np.testing.assert_array_equal(product, np.hstack([xs, ys[perm]]))

    def test_peak_memory_is_the_two_blocks_and_the_permutation(self):
        n = 200_000
        pairs = np.random.default_rng(3).normal(size=(n, 2))
        tracemalloc.start()
        try:
            joint, product = joint_and_product(pairs, [0], [1], seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < joint.nbytes + product.nbytes + n * 8 + 100_000


class TestEstimateMi:
    def test_independent_near_zero(self):
        pairs = sample_gaussian_pairs(GaussianPairSpec(1, 0.0, 5000, seed=10))
        result = estimate_mi(pairs, [0], [1], seed=10)
        assert abs(result.kl_estimate) <= 0.05

    def test_correlated_recovers_analytic_value(self):
        pairs = sample_gaussian_pairs(GaussianPairSpec(1, 0.5, 20_000, seed=11))
        result = estimate_mi(pairs, [0], [1], seed=11)
        assert result.kl_estimate == pytest.approx(analytic_mi(1, 0.5), abs=0.05)

    def test_multidimensional(self):
        pairs = sample_gaussian_pairs(GaussianPairSpec(2, 0.6, 20_000, seed=12))
        result = estimate_mi(pairs, [0, 1], [2, 3], seed=12)
        assert result.kl_estimate == pytest.approx(analytic_mi(2, 0.6), abs=0.12)

    def test_seed_determinism(self):
        pairs = sample_gaussian_pairs(GaussianPairSpec(1, 0.5, 1000, seed=13))
        r1 = estimate_mi(pairs, [0], [1], seed=7)
        r2 = estimate_mi(pairs, [0], [1], seed=7)
        assert r1.kl_estimate == r2.kl_estimate

    def test_bandwidth_too_small_for_float32_kernel_rows_refused(self):
        # at 3e-4 the float32 kernel rows reached 9e6 and primal mode read 44431
        # nats; dual mode, in float64, reads 0.025
        pairs = sample_gaussian_pairs(GaussianPairSpec(1, 0.5, 2000, seed=0))
        with pytest.raises(InvalidInputError, match="use a larger --bandwidth or --mode dual"):
            estimate_mi(pairs, [0], [1], EstimatorConfig(bandwidth=3e-4))
        dual = estimate_mi(pairs, [0], [1], EstimatorConfig(bandwidth=3e-4, mode="dual"))
        assert abs(dual.kl_estimate) <= 0.05

    def test_column_order_symmetry_of_roles(self):
        # swapping which block is called x and which y leaves MI finite and close
        pairs = sample_gaussian_pairs(GaussianPairSpec(1, 0.8, 10_000, seed=14))
        a = estimate_mi(pairs, [0], [1], seed=3).kl_estimate
        b = estimate_mi(pairs, [1], [0], seed=3).kl_estimate
        assert a == pytest.approx(b, abs=0.08)
