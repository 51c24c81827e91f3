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
from kernelkl import estimator, mine_estimate
from kernelkl.estimator import _OPTIMIZER_TAG, derive_seed, joint_and_product, split_pairs
from kernelkl.kernels import DEFAULT_FEATURE_DIM, KernelRows, KernelSpec, sample_landmarks
from reference import build_gram, run_dual


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
        # the witness T = 0 is optimal
        assert result.trace.gap == 0.0

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
        # dual mode's kernel columns (one product on the centred rows) and the
        # columns of build_gram (differences summed per coordinate) agree to
        # rounding, so the two factors and runs agree to rounding, not bit for bit
        rng = np.random.default_rng(12)
        X, Y = rng.normal(size=(60, 2)), rng.normal(loc=0.5, size=(45, 2))
        cfg = EstimatorConfig(mode="dual", optimizer=OptimizerConfig(max_iter=150, minibatch=minibatch, seed=7))
        result = estimate_kl(X, Y, cfg)
        K = build_gram(X, Y, KernelSpec(result.bandwidth))
        _, trace = run_dual(K, cfg.optimizer.with_seed(derive_seed(7, _OPTIMIZER_TAG)))
        assert result.trace.kl_values.shape == trace.kl_values.shape
        np.testing.assert_allclose(result.trace.kl_values, trace.kl_values, rtol=0, atol=1e-12)
        assert abs(result.kl_estimate - trace.estimate) <= 1e-12

    def test_dual_refuses_oversized_factor_before_allocating(self):
        # 10002 pooled rows x 10002 features is above MAX_FACTOR_ENTRIES
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

    @pytest.mark.parametrize("estimate", [estimate_kl, mine_estimate])
    def test_samples_without_columns_rejected(self, estimate):
        # an empty row has no distances: it read as a degenerate 0.0, or overflowed MINE
        with pytest.raises(InvalidInputError, match="D >= 1"):
            estimate(np.zeros((5, 0)), np.zeros((5, 0)))

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
    """Small primal problems go to Newton; otherwise Q kernel rows are stored when they fit, else made per minibatch."""

    class Captured(Exception):
        pass

    def capture_solver(self, monkeypatch, X, Y, cfg):
        """(solver name, PhiY, whitener) of the solver the estimator calls; Newton takes no whitener."""
        for solver in ("run_primal", "run_newton"):
            def spy(mean_phi_x, PhiY, cfg, whitener=None, solver=solver):
                raise self.Captured(solver, PhiY, whitener)

            monkeypatch.setattr(estimator, solver, spy)
        with pytest.raises(self.Captured) as caught:
            estimate_kl(X, Y, cfg)
        return caught.value.args

    def q_argument(self, monkeypatch, m, feature_dim, minibatch, max_iter=500):
        X, Y = gaussian_sets(m, seed=1)
        cfg = EstimatorConfig(feature_dim=feature_dim, optimizer=OptimizerConfig(minibatch=minibatch, max_iter=max_iter))
        return self.capture_solver(monkeypatch, X, Y, cfg)

    @pytest.mark.parametrize("m, minibatch, streamed", [(100, 16, False), (101, 16, True), (101, 101, True)])
    def test_rule(self, monkeypatch, m, minibatch, streamed):
        # 100 rows x 16 float32 kernel rows fill the cap exactly; at D = 1 the
        # landmark factor of ~200 pooled rows reaches the cap of 16.  A full
        # batch streams too: run_primal makes its rows once
        monkeypatch.setattr(estimator, "NEWTON_MAX_ENTRIES", 0)
        monkeypatch.setattr(estimator, "MAX_STORED_KERNEL_BYTES", 100 * 16 * 4)
        _, PhiY, whitener = self.q_argument(monkeypatch, m, 16, minibatch)
        assert isinstance(PhiY, KernelRows) == streamed
        assert PhiY.shape == (m, 16) and PhiY.dtype == np.float32
        assert whitener.shape == (16, 16)

    @pytest.mark.parametrize("m, bound, solver", [
        # (m + r) r = (m + 16) 16 against NEWTON_MAX_ENTRIES = 16 * bound
        (100, 116, "run_newton"), (100, 115, "run_primal"), (101, 116, "run_primal"), (99, 115, "run_newton"),
    ])
    def test_newton_rule(self, monkeypatch, m, bound, solver):
        # Newton where (m + r) r is at most NEWTON_MAX_ENTRIES, whatever the
        # SGD settings and the storage cap; SGD rows obey the cap
        monkeypatch.setattr(estimator, "NEWTON_MAX_ENTRIES", 16 * bound)
        for max_iter, minibatch in ((1, 1), (500, 16), (10**6, 10**6)):
            chosen, PhiY, whitener = self.q_argument(monkeypatch, m, 16, minibatch, max_iter=max_iter)
            assert chosen == solver and PhiY.shape == (m, 16) and not isinstance(PhiY, KernelRows)
            # Newton gets the whitened rows in float64, SGD the float32 kernel rows and W
            assert (PhiY.dtype, whitener is None) == ((np.float64, True) if solver == "run_newton" else (np.float32, False))
        monkeypatch.setattr(estimator, "MAX_STORED_KERNEL_BYTES", 0)
        chosen, PhiY, _ = self.q_argument(monkeypatch, m, 16, 16)
        assert chosen == solver and isinstance(PhiY, KernelRows) == (solver == "run_primal")

    @pytest.mark.parametrize("m, solver", [(100, "run_newton"), (101, "run_primal")])
    def test_newton_rows_fit_the_cap(self, monkeypatch, m, solver):
        # Newton holds its float64 rows and one scaled copy, 16 bytes an entry,
        # so NEWTON_MAX_ENTRIES entries fit the cap; with the bound at 100 x 16
        # rows a raised SGD budget moves neither side of it
        assert estimator.NEWTON_MAX_ENTRIES * 16 <= estimator.MAX_STORED_KERNEL_BYTES
        monkeypatch.setattr(estimator, "NEWTON_MAX_ENTRIES", (100 + 16) * 16)
        chosen, PhiY, _ = self.q_argument(monkeypatch, m, 16, 16, max_iter=10**5)
        assert chosen == solver and not isinstance(PhiY, KernelRows)
        if solver == "run_newton":
            assert 2 * PhiY.nbytes <= estimator.NEWTON_MAX_ENTRIES * 16

    @pytest.mark.parametrize("r", [16, 100, 200, 400, 500])
    def test_default_routes_are_the_budget_rule(self, monkeypatch, r):
        # at the defaults, Newton takes exactly the problems with (m + r) r
        # within the default SGD run's max_iter * minibatch rows, the rule
        # that once read those settings; at D = 3 the rank reaches the cap
        opt = OptimizerConfig()
        m_last = opt.max_iter * opt.minibatch // r - r
        rng = np.random.default_rng(5)
        X = rng.normal(size=(2000, 3))
        ranks = TestEstimateKl.spy_on_rank(monkeypatch)
        for m in (m_last, m_last + 1):
            Y = rng.normal(loc=0.3, size=(m, 3))
            chosen, _, _ = self.capture_solver(monkeypatch, X, Y, EstimatorConfig(feature_dim=r))
            assert ranks.pop() == r
            newton = (m + r) * r <= opt.max_iter * opt.minibatch and 2 * m * r * 8 <= estimator.MAX_STORED_KERNEL_BYTES
            assert chosen == ("run_newton" if newton else "run_primal") == ("run_newton" if m == m_last else "run_primal")

    def test_dual_mode_keeps_sgd(self, monkeypatch):
        for solver in ("run_primal", "run_newton"):
            def spy(mean_phi_x, PhiY, cfg, whitener, solver=solver):
                raise self.Captured(solver)

            monkeypatch.setattr(estimator, solver, spy)
        X, Y = gaussian_sets(50, seed=1)
        with pytest.raises(self.Captured) as caught:
            estimate_kl(X, Y, EstimatorConfig(mode="dual"))
        assert caught.value.args == ("run_primal",)

    def test_small_stored_estimate_is_certified(self):
        X, Y = gaussian_sets(1_000, shift=1.0, seed=2)
        result = estimate_kl(X, Y)
        assert result.converged and result.trace.gap <= OptimizerConfig().gamma
        assert 1 <= result.iterations <= 10 and result.kl_estimate == result.trace.kl_values[-1]
        assert abs(result.kl_estimate - 0.5) <= 0.1

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

    @pytest.mark.parametrize("x_cols, y_cols", [
        ([True], [0]), ([0.0], [1]), ([0], [np.float64(1.0)]), ([np.True_], [0]), ([0], ["1"]),
    ])
    def test_non_integer_column_rejected(self, x_cols, y_cols):
        # a bool selects by mask and a float does not index; estimate_mi raised a bare IndexError
        with pytest.raises(InvalidInputError, match="is not an integer"):
            estimate_mi(np.zeros((5, 2)), x_cols, y_cols)

    def test_numpy_integer_columns_accepted(self):
        xs, ys = split_pairs(np.arange(8.0).reshape(2, 4), [np.int64(0)], [np.uint8(3)])
        assert (xs[:, 0].tolist(), ys[:, 0].tolist()) == ([0.0, 4.0], [3.0, 7.0])

    @pytest.mark.parametrize("x_cols, y_cols", [([0, 0], [1]), ([0], [2, 3, 2]), ([1, 0, 1], [2])])
    def test_repeated_column_rejected(self, x_cols, y_cols):
        # a repeated column would count twice in the kernel distance
        with pytest.raises(InvalidInputError, match="repeated"):
            split_pairs(np.zeros((3, 4)), x_cols, y_cols)


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

    def test_bandwidth_too_small_for_float64_kernel_columns_refused(self):
        # every point its own cluster: dual mode read a saturated 1.974 nats here
        pairs = sample_gaussian_pairs(GaussianPairSpec(1, 0.5, 50, seed=0))
        with pytest.raises(InvalidInputError, match="float64 kernel columns of dual mode; use a larger --bandwidth"):
            estimate_mi(pairs, [0], [1], EstimatorConfig(mode="dual", bandwidth=1e-100))

    def test_column_order_symmetry_of_roles(self):
        # swapping which block is called x and which y leaves MI finite and close
        pairs = sample_gaussian_pairs(GaussianPairSpec(1, 0.8, 10_000, seed=14))
        a = estimate_mi(pairs, [0], [1], seed=3).kl_estimate
        b = estimate_mi(pairs, [1], [0], seed=3).kl_estimate
        assert a == pytest.approx(b, abs=0.08)
