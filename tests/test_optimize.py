import warnings

import numpy as np
import pytest

from kernelkl import InvalidInputError, NumericalFailureError, OptimizerConfig
from kernelkl.kernels import (
    FeatureRows,
    KernelSpec,
    apply_feature_map,
    build_gram,
    mean_feature_map,
    pivoted_cholesky,
    sample_feature_map,
)
from kernelkl.objective import dual_gradient, dual_objective, primal_gradient
from kernelkl.optimize import CONVERGENCE_WINDOW, ascend, project_dual, project_primal, run_dual, run_primal


def small_problem(n=20, seed=0, shift=1.0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 1))
    Y = rng.normal(loc=shift, size=(n, 1))
    return X, Y, build_gram(X, Y, KernelSpec(1.0))


class TestOptimizerConfig:
    @pytest.mark.parametrize("field,value", [
        *((f, v) for f in ("step_size", "gamma", "norm_budget") for v in (float("nan"), float("inf"), 0.0, -1.0)),
        *(("penalty_weight", v) for v in (float("nan"), float("inf"), -1.0)),
    ])
    def test_non_finite_or_out_of_range_rejected(self, field, value):
        with pytest.raises(InvalidInputError, match=field):
            OptimizerConfig(**{field: value})


class TestAscend:
    def test_constant_value_stalls_after_one_window(self):
        calls = []

        def step(weights, rng):
            calls.append(rng)
            return weights + 1, 0.25

        weights, trace = ascend(step, 0, OptimizerConfig(max_iter=100))
        # the first smoothed value has no predecessor, so the stall count
        # reaches the window one step later
        assert trace.converged and trace.iterations == CONVERGENCE_WINDOW + 1
        assert weights == CONVERGENCE_WINDOW + 1
        assert trace.estimate == 0.25
        assert all(rng is calls[0] for rng in calls)

    def test_max_iter_without_stall(self):
        values = iter(range(1, 100))
        _, trace = ascend(lambda w, rng: (w, float(next(values))), None, OptimizerConfig(max_iter=20))
        assert not trace.converged and trace.iterations == 20
        assert trace.estimate == np.mean(np.arange(11, 21))

    def test_non_finite_value_raises_with_iteration(self):
        values = iter([0.1, 0.2, float("nan")])
        with pytest.raises(NumericalFailureError) as info:
            ascend(lambda w, rng: (w, next(values)), None, OptimizerConfig())
        assert info.value.iteration == 3

    def test_rng_seeded_from_config(self):
        def draws(seed):
            out = []

            def step(weights, rng):
                out.append(int(rng.integers(1 << 30)))
                return weights, 0.0

            ascend(step, None, OptimizerConfig(max_iter=5, seed=seed))
            return out

        assert draws(4) == draws(4) != draws(5)


class TestProjection:
    def test_feasible_dual_unchanged(self):
        _, _, K = small_problem()
        alpha = np.full(K.size, 0.01)
        out = project_dual(alpha, K, norm_budget=10.0)
        assert out is alpha

    def test_infeasible_dual_lands_on_boundary(self):
        _, _, K = small_problem()
        rng = np.random.default_rng(1)
        alpha = rng.normal(size=K.size)
        q = alpha @ K.entries @ alpha
        M = 0.5 * np.sqrt(q)  # quadratic form is 4 M^2
        out = project_dual(alpha, K, norm_budget=M)
        assert out @ K.entries @ out == pytest.approx(M**2, abs=1e-9)

    def test_feasible_primal_unchanged(self):
        beta = np.array([0.1, 0.2])
        assert project_primal(beta, 1.0) is beta

    def test_primal_scaling(self):
        beta = np.array([3.0, 4.0])  # norm 5 = 2M for M = 2.5
        out = project_primal(beta, 2.5)
        assert np.linalg.norm(out) == pytest.approx(2.5)
        np.testing.assert_allclose(out, beta / 2.0)

    @pytest.mark.parametrize("beta", [[np.inf, 1.0], [np.nan, 1.0], [1e200, 1e200]])
    def test_primal_non_finite_norm_raises(self, beta):
        # rescaling by M / inf would zero beta, or give 0 * inf = NaN
        with np.errstate(over="ignore"), pytest.raises(NumericalFailureError, match="step_size"):
            project_primal(np.array(beta), 1.0)

    def test_dual_non_finite_norm_raises(self):
        _, _, K = small_problem()
        with np.errstate(over="ignore"), pytest.raises(NumericalFailureError, match="step_size"):
            project_dual(np.full(K.size, 1e200), K, norm_budget=10.0)


class TestOverflowingStep:
    """A huge finite step is a numerical failure naming step_size, without numpy warnings."""

    @pytest.mark.parametrize("step_size", [1e30, 1e308])
    def test_primal(self, step_size):
        X, Y, _ = small_problem()
        fm = sample_feature_map(1, 64, KernelSpec(1.0))
        PhiX, PhiY = (apply_feature_map(fm, Z, dtype=np.float32) for Z in (X, Y))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalFailureError, match="step_size is too large"):
                run_primal(PhiX.mean(axis=0), PhiY, OptimizerConfig(step_size=step_size, max_iter=5))

    @pytest.mark.parametrize("step_size", [1e200, 1e308])
    def test_dual(self, step_size):
        _, _, K = small_problem()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalFailureError, match="step_size is too large"):
                run_dual(K, OptimizerConfig(step_size=step_size, max_iter=5))


class TestRunDual:
    def test_coincident_inputs_estimate_zero(self):
        Z = np.zeros((5, 1))
        K = build_gram(Z, Z, KernelSpec(1.0))
        _, trace = run_dual(K, OptimizerConfig(max_iter=50))
        assert trace.estimate == pytest.approx(0.0, abs=1e-12)
        assert trace.converged

    def test_same_distribution_small_mean_estimate(self):
        # at n = m = 50 single runs scatter +-0.15 from sampling noise alone;
        # the KL(P||P) = 0 oracle is asserted on the 30-seed mean
        ests = []
        for s in range(30):
            rng = np.random.default_rng(100 + s)
            X = rng.normal(size=(50, 1))
            Y = rng.normal(size=(50, 1))
            K = build_gram(X, Y, KernelSpec(2.0))
            _, trace = run_dual(K, OptimizerConfig(step_size=0.05, max_iter=200, penalty_weight=0.01))
            ests.append(trace.estimate)
        assert abs(np.mean(ests)) <= 0.05

    def test_seed_determinism(self):
        X, Y, K = small_problem(seed=3)
        cfg = OptimizerConfig(step_size=0.2, max_iter=100, minibatch=8, seed=11)
        _, t1 = run_dual(K, cfg)
        _, t2 = run_dual(K, cfg)
        assert np.array_equal(t1.kl_values, t2.kl_values)
        assert t1.iterations == t2.iterations

    def test_feasibility_throughout(self):
        X, Y, K = small_problem(seed=5, shift=2.0)
        cfg = OptimizerConfig(step_size=1.0, max_iter=150, norm_budget=0.5)
        alpha, _ = run_dual(K, cfg)
        assert alpha @ K.entries @ alpha <= 0.5**2 + 1e-9

    def test_monotone_descent_full_batch(self):
        # penalized objective non-increasing for a conservative full-batch step
        X, Y, K = small_problem(n=10, seed=7)
        cfg = OptimizerConfig(step_size=0.01, max_iter=100, minibatch=1000, penalty_weight=1e-3)
        pw = cfg.penalty_weight

        def penalized(a):
            return dual_objective(a, K) + pw * a @ K.entries @ a

        alpha = np.zeros(K.size)
        prev = penalized(alpha)
        for _ in range(100):
            grad = dual_gradient(alpha, K, penalty_weight=pw)
            alpha = project_dual(alpha - cfg.step_size * grad, K, cfg.norm_budget)
            cur = penalized(alpha)
            assert cur <= prev + 1e-9
            prev = cur

    def test_converges_to_stationary_point(self):
        # full-batch on a strongly penalized convex problem with the constraint
        # inactive: the final gradient norm certifies convergence to the optimum
        X, Y, K = small_problem(n=10, seed=9)
        cfg = OptimizerConfig(
            step_size=0.3,
            max_iter=30_000,
            minibatch=1000,
            gamma=1e-12,
            penalty_weight=0.05,
            norm_budget=100.0,
        )
        alpha, _ = run_dual(K, cfg)
        assert alpha @ K.entries @ alpha < cfg.norm_budget**2  # interior
        grad = dual_gradient(alpha, K, penalty_weight=cfg.penalty_weight)
        assert np.linalg.norm(grad) <= 1e-4

    @pytest.mark.parametrize("minibatch", [8, 512])
    def test_alpha_reproduces_the_feature_witness(self, minibatch):
        X, Y, K = small_problem(seed=15)
        cfg = OptimizerConfig(max_iter=100, minibatch=minibatch, seed=3)
        alpha, trace = run_dual(K, cfg)
        L, pivots = pivoted_cholesky(lambda i: K.entries[:, i], K.size, K.size)
        gamma, primal_trace = run_primal(L[: K.n].mean(axis=0), L[K.n :], cfg)
        assert np.array_equal(trace.kl_values, primal_trace.kl_values)
        assert np.count_nonzero(alpha) <= len(pivots)
        np.testing.assert_allclose(K.entries @ alpha, L @ gamma, rtol=0, atol=1e-9)
        assert alpha @ K.entries @ alpha == pytest.approx(gamma @ gamma, abs=1e-9)

    def test_trace_shape(self):
        X, Y, K = small_problem(seed=13)
        _, trace = run_dual(K, OptimizerConfig(step_size=0.1, max_iter=40))
        assert trace.iterations <= 40
        assert len(trace.kl_values) == trace.iterations


class TestRunPrimal:
    @staticmethod
    def features(X, Y, d=256, seed=0, bandwidth=1.0):
        fm = sample_feature_map(X.shape[1], d, KernelSpec(bandwidth), seed=seed)
        return apply_feature_map(fm, X), apply_feature_map(fm, Y)

    def test_same_distribution_small_estimate(self):
        rng = np.random.default_rng(31)
        X = rng.normal(size=(50, 1))
        Y = rng.normal(size=(50, 1))
        PhiX, PhiY = self.features(X, Y)
        _, trace = run_primal(PhiX.mean(axis=0), PhiY, OptimizerConfig(step_size=0.2, max_iter=200))
        assert abs(trace.estimate) <= 0.05

    def test_seed_determinism(self):
        rng = np.random.default_rng(33)
        X = rng.normal(size=(40, 1))
        Y = rng.normal(loc=1.0, size=(40, 1))
        PhiX, PhiY = self.features(X, Y)
        cfg = OptimizerConfig(max_iter=100, minibatch=16, seed=5)
        _, t1 = run_primal(PhiX.mean(axis=0), PhiY, cfg)
        _, t2 = run_primal(PhiX.mean(axis=0), PhiY, cfg)
        assert np.array_equal(t1.kl_values, t2.kl_values)

    def test_feasibility_throughout(self):
        rng = np.random.default_rng(35)
        X = rng.normal(size=(50, 1))
        Y = rng.normal(loc=3.0, size=(50, 1))
        PhiX, PhiY = self.features(X, Y)
        beta, _ = run_primal(PhiX.mean(axis=0), PhiY, OptimizerConfig(step_size=2.0, max_iter=200, norm_budget=1.0))
        assert np.linalg.norm(beta) <= 1.0 + 1e-9

    def test_agrees_with_dual_on_gaussian_kl(self):
        # dual path as oracle for the feature-space approximation
        rng = np.random.default_rng(37)
        X = rng.normal(size=(250, 1))
        Y = rng.normal(loc=1.0, size=(250, 1))
        K = build_gram(X, Y, KernelSpec(1.0))
        # the dual side runs a smaller step for longer than the primal side
        _, dual_trace = run_dual(K, OptimizerConfig(step_size=0.05, max_iter=2000, seed=2))
        PhiX, PhiY = self.features(X, Y, d=2048, seed=3)
        _, primal_trace = run_primal(PhiX.mean(axis=0), PhiY, OptimizerConfig(step_size=0.5, max_iter=2000, seed=2))
        assert abs(primal_trace.estimate - dual_trace.estimate) <= 0.05

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("minibatch", [64, 512, 5_000])
    def test_streamed_rows_give_the_stored_run(self, seed, minibatch):
        # the same draws index the stored matrix and the lazy rows, so weights
        # and traces agree bit for bit; a full batch maps the rows once
        rng = np.random.default_rng(seed)
        X, Y = rng.normal(size=(3_000, 2)), rng.normal(loc=0.7, size=(4_000, 2))
        fm = sample_feature_map(2, 1024, KernelSpec(0.5), seed=seed)
        mean_phi_x = mean_feature_map(fm, X, dtype=np.float32)
        cfg = OptimizerConfig(max_iter=60, minibatch=minibatch, seed=seed)
        stored = run_primal(mean_phi_x, apply_feature_map(fm, Y, dtype=np.float32), cfg)
        streamed = run_primal(mean_phi_x, FeatureRows(fm, Y, np.float32), cfg)
        for beta, _ in (stored, streamed):
            # a float64 scalar anywhere in the step would make beta float64 (NEP 50)
            assert beta.dtype == np.float32
        assert stored[0].tobytes() == streamed[0].tobytes()
        assert stored[1].kl_values.tobytes() == streamed[1].kl_values.tobytes()
        assert stored[1].estimate == streamed[1].estimate and stored[1].iterations == streamed[1].iterations

    def test_stationary_full_batch(self):
        rng = np.random.default_rng(39)
        X = rng.normal(size=(30, 1))
        Y = rng.normal(loc=0.5, size=(30, 1))
        PhiX, PhiY = self.features(X, Y, d=64)
        cfg = OptimizerConfig(step_size=0.5, max_iter=5000, minibatch=1000, gamma=1e-12, penalty_weight=1e-3)
        beta, _ = run_primal(PhiX.mean(axis=0), PhiY, cfg)
        grad = primal_gradient(beta, PhiX, PhiY, penalty_weight=cfg.penalty_weight)
        assert np.linalg.norm(grad) <= 1e-4
