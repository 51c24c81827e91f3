import warnings

import numpy as np
import pytest

from kernelkl import InvalidInputError, NumericalFailureError, OptimizerConfig
from kernelkl.kernels import (
    KernelRows,
    KernelSpec,
    kernel_rows,
    mean_landmark_features,
    pivoted_cholesky,
    sample_landmarks,
)
from kernelkl.optimize import (
    CONVERGENCE_WINDOW,
    _ball_newton_point,
    ascend,
    project_primal,
    run_newton,
    run_primal,
)
from reference import (
    build_gram,
    dual_gradient,
    penalized_optimum,
    primal_gradient,
    primal_objective,
    run_dual,
)


def small_problem(n=20, seed=0, shift=1.0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 1))
    Y = rng.normal(loc=shift, size=(n, 1))
    return X, Y, build_gram(X, Y, KernelSpec(1.0))


class TestOptimizerConfig:
    @pytest.mark.parametrize("field,value", [
        *((f, v) for f in ("step_size", "gamma", "norm_budget") for v in (float("nan"), float("inf"), 0.0, -1.0)),
        *(("penalty_weight", v) for v in (float("nan"), float("inf"), -1.0)),
        ("max_iter", 0),
        ("minibatch", 0),
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

    @pytest.mark.parametrize("max_iter", [3, 37])
    def test_estimate_is_the_final_window_mean_bit_for_bit(self, max_iter):
        values = np.random.default_rng(max_iter).normal(scale=100.0, size=max_iter)
        it = iter(values.tolist())
        _, trace = ascend(lambda w, rng: (w, next(it)), None, OptimizerConfig(max_iter=max_iter))
        assert trace.iterations == max_iter
        assert trace.estimate == float(np.mean(values[-CONVERGENCE_WINDOW:]))

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


class TestOverflowingStep:
    """A huge finite step is a numerical failure naming step_size, without numpy warnings."""

    @pytest.mark.parametrize("step_size", [1e30, 1e308])
    def test_primal(self, step_size):
        X, Y, _ = small_problem()
        lm = sample_landmarks(X, Y, KernelSpec(1.0), 64)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalFailureError, match="step_size is too large"):
                run_primal(
                    mean_landmark_features(lm, X),
                    kernel_rows(lm, Y),
                    OptimizerConfig(step_size=step_size, max_iter=5),
                    lm.whitener,
                )

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
        # penalized objective non-increasing for a conservative full-batch step,
        # on the pivoted-Cholesky rows of K that run_dual optimizes over
        X, Y, K = small_problem(n=10, seed=7)
        cfg = OptimizerConfig(step_size=0.01, max_iter=100, minibatch=1000, penalty_weight=1e-3)
        pw = cfg.penalty_weight
        L, _ = pivoted_cholesky(lambda i: K.entries[:, i], K.size, K.size)
        PhiX, PhiY = L[: K.n], L[K.n :]

        def penalized(gamma):
            return primal_objective(gamma, PhiX, PhiY) + pw * gamma @ gamma

        gamma = np.zeros(L.shape[1])
        prev = penalized(gamma)
        for _ in range(100):
            grad = primal_gradient(gamma, PhiX, PhiY, penalty_weight=pw)
            gamma = project_primal(gamma - cfg.step_size * grad, cfg.norm_budget)
            cur = penalized(gamma)
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
        """run_primal's landmark-feature arguments: the mean of phi over X, the kernel rows of Y, and W."""
        lm = sample_landmarks(X, Y, KernelSpec(bandwidth), d, seed=seed)
        return mean_landmark_features(lm, X), kernel_rows(lm, Y), lm.whitener

    def test_same_distribution_small_estimate(self):
        rng = np.random.default_rng(31)
        X = rng.normal(size=(50, 1))
        Y = rng.normal(size=(50, 1))
        mean_phi_x, KY, W = self.features(X, Y)
        _, trace = run_primal(mean_phi_x, KY, OptimizerConfig(step_size=0.2, max_iter=200), W)
        assert abs(trace.estimate) <= 0.05

    def test_seed_determinism(self):
        rng = np.random.default_rng(33)
        X = rng.normal(size=(40, 1))
        Y = rng.normal(loc=1.0, size=(40, 1))
        mean_phi_x, KY, W = self.features(X, Y)
        cfg = OptimizerConfig(max_iter=100, minibatch=16, seed=5)
        _, t1 = run_primal(mean_phi_x, KY, cfg, W)
        _, t2 = run_primal(mean_phi_x, KY, cfg, W)
        assert np.array_equal(t1.kl_values, t2.kl_values)

    def test_feasibility_throughout(self):
        rng = np.random.default_rng(35)
        X = rng.normal(size=(50, 1))
        Y = rng.normal(loc=3.0, size=(50, 1))
        mean_phi_x, KY, W = self.features(X, Y)
        beta, _ = run_primal(mean_phi_x, KY, OptimizerConfig(step_size=2.0, max_iter=200, norm_budget=1.0), W)
        assert np.linalg.norm(beta) <= 1.0 + 1e-9

    def test_agrees_with_dual_on_gaussian_kl(self):
        # dual path as oracle for the feature-space approximation
        rng = np.random.default_rng(37)
        X = rng.normal(size=(250, 1))
        Y = rng.normal(loc=1.0, size=(250, 1))
        K = build_gram(X, Y, KernelSpec(1.0))
        # the dual side runs a smaller step for longer than the primal side
        _, dual_trace = run_dual(K, OptimizerConfig(step_size=0.05, max_iter=2000, seed=2))
        mean_phi_x, KY, W = self.features(X, Y, d=2048, seed=3)
        _, primal_trace = run_primal(mean_phi_x, KY, OptimizerConfig(step_size=0.5, max_iter=2000, seed=2), W)
        assert abs(primal_trace.estimate - dual_trace.estimate) <= 0.05

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("minibatch", [64, 512, 5_000])
    def test_streamed_rows_give_the_stored_run(self, seed, minibatch):
        # the same draws index the stored kernel rows and the lazy ones, so
        # weights and traces agree bit for bit; a full batch makes the rows once
        rng = np.random.default_rng(seed)
        X, Y = rng.normal(size=(3_000, 2)), rng.normal(loc=0.7, size=(4_000, 2))
        lm = sample_landmarks(X, Y, KernelSpec(0.5), 512, seed=seed)
        mean_phi_x = mean_landmark_features(lm, X)
        cfg = OptimizerConfig(max_iter=60, minibatch=minibatch, seed=seed)
        stored = run_primal(mean_phi_x, kernel_rows(lm, Y), cfg, lm.whitener)
        streamed = run_primal(mean_phi_x, KernelRows(lm, Y), cfg, lm.whitener)
        for beta, _ in (stored, streamed):
            # a float64 scalar or whitener anywhere in the step would make beta float64 (NEP 50)
            assert beta.dtype == np.float32 and beta.shape == (lm.rank,)
        assert stored[0].tobytes() == streamed[0].tobytes()
        assert stored[1].kl_values.tobytes() == streamed[1].kl_values.tobytes()
        assert stored[1].estimate == streamed[1].estimate and stored[1].iterations == streamed[1].iterations

    @pytest.mark.parametrize("minibatch", [64, 10_000])
    def test_whitener_inside_the_step_equals_whitened_rows(self, minibatch):
        # K_b (W beta) and W' (K_b' w) are the scores and gradient of the rows K W
        rng = np.random.default_rng(5)
        X, Y = rng.normal(size=(400, 2)), rng.normal(loc=0.7, size=(500, 2))
        spec = KernelSpec(0.6)
        lm = sample_landmarks(X, Y, spec, 64, seed=1)
        KX, KY = kernel_rows(lm, X).astype(float), kernel_rows(lm, Y).astype(float)
        cfg = OptimizerConfig(max_iter=80, minibatch=minibatch, seed=3)
        beta_w, trace_w = run_primal(KX.mean(axis=0) @ lm.whitener, KY, cfg, lm.whitener)
        beta, trace = run_primal((KX @ lm.whitener).mean(axis=0), KY @ lm.whitener, cfg)
        np.testing.assert_allclose(beta_w, beta, rtol=0, atol=1e-9)
        np.testing.assert_allclose(trace_w.kl_values, trace.kl_values, rtol=0, atol=1e-9)

    def test_whitener_shape_must_match(self):
        with pytest.raises(InvalidInputError, match="d-vector"):
            run_primal(np.zeros(3), np.zeros((5, 4)), OptimizerConfig(), np.eye(3))

    def test_stationary_full_batch(self):
        rng = np.random.default_rng(39)
        X = rng.normal(size=(30, 1))
        Y = rng.normal(loc=0.5, size=(30, 1))
        mean_phi_x, KY, W = self.features(X, Y, d=64)
        cfg = OptimizerConfig(step_size=0.5, max_iter=5000, minibatch=1000, gamma=1e-12, penalty_weight=1e-3)
        beta, _ = run_primal(mean_phi_x, KY, cfg, W)
        # the P side enters the gradient only through its mean
        grad = primal_gradient(beta, mean_phi_x[None], KY @ W, penalty_weight=cfg.penalty_weight)
        assert np.linalg.norm(grad) <= 1e-4


def landmark_problem(n=300, m=400, shift=1.0, rank=48, bandwidth=0.5, seed=41):
    """The primal features of a D = 1 KL task: the mean of phi over X, the kernel rows of Y, and W."""
    rng = np.random.default_rng(seed)
    X, Y = rng.normal(size=(n, 1)), rng.normal(loc=shift, size=(m, 1))
    lm = sample_landmarks(X, Y, KernelSpec(bandwidth), rank, seed=0)
    return mean_landmark_features(lm, X), kernel_rows(lm, Y), lm.whitener


def newton_problem(**kwargs):
    """run_newton's arguments on ``landmark_problem``: the mean of phi over X and the float64 rows phi(Y)."""
    mean_phi_x, KY, W = landmark_problem(**kwargs)
    return mean_phi_x, KY.astype(float) @ W


def penalized(beta, mean_phi_x, PhiY, penalty_weight):
    """The loss run_newton minimizes, in float64 on the given rows."""
    return primal_objective(beta, mean_phi_x[None], PhiY.astype(float)) + penalty_weight * float(beta @ beta)


class TestBallNewtonPoint:
    @staticmethod
    def kkt_residual(H, rhs, radius, x):
        """Zero at the minimizer: (H + nu I) x = rhs for nu >= 0, ||x|| <= radius, and nu = 0 inside the ball."""
        nu = max(0.0, float(x @ (rhs - H @ x)) / float(x @ x))
        interior = np.linalg.norm(x) < radius * (1 - 1e-9)
        return np.linalg.norm(H @ x + (0.0 if interior else nu) * x - rhs) / np.linalg.norm(rhs)

    @pytest.mark.parametrize("radius", [0.1, 1.0, 100.0])
    @pytest.mark.parametrize("seed", range(3))
    def test_kkt_conditions(self, seed, radius):
        rng = np.random.default_rng(seed)
        A = rng.normal(size=(30, 12))
        H, rhs = A.T @ A / 30 + 1e-3 * np.eye(12), rng.normal(size=12)
        x = _ball_newton_point(H, rhs, radius)
        assert np.linalg.norm(x) <= radius * (1 + 1e-12)
        assert self.kkt_residual(H, rhs, radius, x) <= 1e-8

    def test_singular_hessian_lands_on_the_sphere(self):
        # without a penalty H may be singular; rhs outside its range has no unconstrained minimizer
        H = np.diag([1.0, 0.0])
        x = _ball_newton_point(H, np.array([1.0, 1.0]), 2.0)
        assert np.linalg.norm(x) == pytest.approx(2.0, rel=1e-9)
        assert self.kkt_residual(H, np.array([1.0, 1.0]), 2.0, x) <= 1e-8


class TestRunNewton:
    @pytest.mark.parametrize("budget, active", [(0.5, True), (2.0, True), (10.0, False)])
    def test_converges_to_the_reference_optimum(self, budget, active):
        mean_phi_x, Phi = newton_problem()
        cfg = OptimizerConfig(norm_budget=budget)
        beta, trace = run_newton(mean_phi_x, Phi, cfg)
        assert trace.converged and trace.gap <= cfg.gamma
        assert (np.linalg.norm(beta) >= budget * (1 - 1e-9)) == active and np.linalg.norm(beta) <= budget * (1 + 1e-12)
        ref, _ = penalized_optimum(mean_phi_x, Phi, cfg.penalty_weight, budget)
        # the reported value is the bound at the witness, on every row
        assert trace.estimate == pytest.approx(-primal_objective(beta, mean_phi_x[None], Phi), abs=1e-12)
        assert abs(trace.estimate + primal_objective(ref, mean_phi_x[None], Phi)) <= 1e-6
        assert penalized(beta, mean_phi_x, Phi, cfg.penalty_weight) <= penalized(ref, mean_phi_x, Phi, cfg.penalty_weight) + 1e-9

    def test_trace(self):
        mean_phi_x, Phi = newton_problem()
        beta, trace = run_newton(mean_phi_x, Phi, OptimizerConfig())
        assert beta.dtype == np.float64
        assert 1 <= trace.iterations <= 10 and trace.kl_values.shape == (trace.iterations,)
        assert trace.kl_values[-1] == trace.estimate
        # the bound may dip while the penalty falls, but each value is finite and the last is the largest here
        assert np.all(np.isfinite(trace.kl_values)) and trace.estimate == trace.kl_values.max()

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("budget", [1.0, 10.0])
    def test_never_worse_than_sgd_at_its_witness(self, seed, budget):
        mean_phi_x, KY, W = landmark_problem(m=600, shift=0.5 + 0.5 * seed, seed=seed)
        Phi = KY.astype(float) @ W
        cfg = OptimizerConfig(norm_budget=budget, seed=seed)
        sgd_beta, _ = run_primal(mean_phi_x, KY, cfg, W)
        beta, trace = run_newton(mean_phi_x, Phi, cfg)
        # both witnesses scored on the same whitened rows
        assert trace.converged
        assert penalized(beta, mean_phi_x, Phi, cfg.penalty_weight) <= penalized(sgd_beta, mean_phi_x, Phi, cfg.penalty_weight)

    def test_unreachable_gamma_stops_at_max_iter(self):
        mean_phi_x, Phi = newton_problem()
        _, trace = run_newton(mean_phi_x, Phi, OptimizerConfig(gamma=1e-300, max_iter=2))
        assert (trace.converged, trace.iterations) == (False, 2)
        assert trace.gap > 1e-300

    def test_stops_at_the_rounding_floor(self):
        # no step lowers the loss at float64 rounding once the optimum is reached,
        # so the loop ends well before max_iter without claiming convergence
        mean_phi_x, Phi = newton_problem()
        _, trace = run_newton(mean_phi_x, Phi, OptimizerConfig(gamma=1e-300, max_iter=1000))
        assert not trace.converged and trace.iterations < 50 and trace.gap < 1e-9

    def test_leaves_its_arguments_unchanged(self):
        mean_phi_x, Phi = newton_problem()
        before = mean_phi_x.tobytes(), Phi.tobytes()
        run_newton(mean_phi_x, Phi, OptimizerConfig())
        assert (mean_phi_x.tobytes(), Phi.tobytes()) == before

    @pytest.mark.parametrize("budget", [0.5, 10.0])
    def test_counts_solve_the_expanded_problem(self, budget):
        # distinct rows with counts are the expanded rows' problem: the same
        # optimum and bound, to rounding, in the same few iterations
        mean_phi_x, Phi = newton_problem()
        counts = np.random.default_rng(4).integers(1, 30, size=Phi.shape[0])
        cfg = OptimizerConfig(norm_budget=budget)
        beta, trace = run_newton(mean_phi_x, Phi, cfg, counts)
        expanded_beta, expanded = run_newton(mean_phi_x, np.repeat(Phi, counts, axis=0), cfg)
        assert trace.converged and trace.gap <= cfg.gamma
        assert trace.iterations == expanded.iterations
        assert abs(trace.estimate - expanded.estimate) <= 1e-12
        np.testing.assert_allclose(beta, expanded_beta, rtol=0, atol=1e-9)
        assert trace.estimate == pytest.approx(-primal_objective(beta, mean_phi_x[None], np.repeat(Phi, counts, axis=0)),
                                               abs=1e-12)

    @pytest.mark.parametrize("counts", [np.ones(399), np.r_[0.0, np.ones(399)], np.r_[np.inf, np.ones(399)],
                                        np.r_[np.nan, np.ones(399)], np.ones((400, 1))])
    def test_counts_must_be_a_positive_count_per_row(self, counts):
        mean_phi_x, Phi = newton_problem()
        with pytest.raises(InvalidInputError, match="counts"):
            run_newton(mean_phi_x, Phi, OptimizerConfig(), counts)

    def test_rows_must_match_the_mean(self):
        with pytest.raises(InvalidInputError, match="d-vector"):
            run_newton(np.zeros(3), np.zeros((5, 4)), OptimizerConfig())
        with pytest.raises(InvalidInputError, match="d-vector"):
            run_newton(np.zeros(4), np.zeros(4), OptimizerConfig())
