import warnings

import numpy as np
import pytest

from kernelkl import InvalidInputError, NumericalFailureError, OptimizerConfig, mine, mine_estimate
from kernelkl.mine import (
    MINE_OPTIMIZER,
    dv_objective_and_gradient,
    init_params,
    mine_forward,
    pack_params,
    unpack_params,
)
from kernelkl.objective import dv_value_and_weights


class TestParams:
    def test_init_deterministic(self):
        p1 = init_params(2, 8, seed=3)
        p2 = init_params(2, 8, seed=3)
        assert np.array_equal(p1.W, p2.W)
        assert np.array_equal(p1.b, p2.b)
        assert np.array_equal(p1.v, p2.v)
        assert p1.c == p2.c

    def test_init_bounds(self):
        p = init_params(4, 16, seed=0)
        assert np.all(np.abs(p.W) <= 0.5)  # 1/sqrt(4)
        assert np.all(np.abs(p.b) <= 0.5)
        assert np.all(np.abs(p.v) <= 0.25)  # 1/sqrt(16)
        assert abs(p.c) <= 0.25

    def test_pack_unpack_roundtrip(self):
        p = init_params(3, 5, seed=1)
        q = unpack_params(pack_params(p), 3, 5)
        np.testing.assert_array_equal(p.W, q.W)
        np.testing.assert_array_equal(p.b, q.b)
        np.testing.assert_array_equal(p.v, q.v)
        assert p.c == q.c


class TestForward:
    def test_manual_oracle(self):
        # hand-computed: t(z) = v . tanh(W z + b) + c with
        # W = [[1, -1]], b = [0.5], v = [2.0], c = 0.3
        p = unpack_params(np.array([1.0, -1.0, 0.5, 2.0, 0.3]), 2, 1)
        z = np.array([1.0, 2.0])
        expected = 2.0 * np.tanh(1.0 * 1.0 + (-1.0) * 2.0 + 0.5) + 0.3
        assert mine_forward(p, z) == pytest.approx(expected, abs=1e-12)

    def test_batch_matches_rowwise(self):
        p = init_params(3, 6, seed=2)
        rng = np.random.default_rng(3)
        Z = rng.normal(size=(10, 3))
        batch = mine_forward(p, Z)
        rows = np.array([mine_forward(p, z) for z in Z])
        np.testing.assert_allclose(batch, rows, atol=1e-12)

    def test_dimension_mismatch(self):
        p = init_params(3, 4, seed=0)
        with pytest.raises(InvalidInputError):
            mine_forward(p, np.zeros(2))


class TestObjectiveAndGradient:
    def test_identical_batches_zero_at_symmetric_value(self):
        # with X = Y, Jensen gives mean t - log mean exp(t) <= 0
        p = init_params(1, 8, seed=4)
        rng = np.random.default_rng(5)
        Z = rng.normal(size=(20, 1))
        value, _ = dv_objective_and_gradient(p, Z, Z)
        assert value <= 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_gradient_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        p = init_params(2, 4, seed=seed)
        Xb = rng.normal(size=(6, 2))
        Yb = rng.normal(loc=0.5, size=(7, 2))
        _, grad = dv_objective_and_gradient(p, Xb, Yb)
        vec = pack_params(p)
        h = 1e-6
        fd = np.empty_like(vec)
        for i in range(vec.size):
            e = np.zeros_like(vec)
            e[i] = h
            vp, _ = dv_objective_and_gradient(unpack_params(vec + e, 2, 4), Xb, Yb)
            vm, _ = dv_objective_and_gradient(unpack_params(vec - e, 2, 4), Xb, Yb)
            fd[i] = (vp - vm) / (2 * h)
        np.testing.assert_allclose(grad, fd, rtol=1e-4, atol=1e-7)

    def test_hidden_layer_evaluated_once_per_batch(self, monkeypatch):
        calls = []
        hidden = mine._hidden

        def counted(params, Z):
            calls.append(Z)
            return hidden(params, Z)

        monkeypatch.setattr(mine, "_hidden", counted)
        rng = np.random.default_rng(13)
        Xb, Yb = rng.normal(size=(6, 2)), rng.normal(size=(7, 2))
        dv_objective_and_gradient(init_params(2, 4, seed=0), Xb, Yb)
        assert len(calls) == 1
        np.testing.assert_array_equal(calls[0], np.concatenate([Xb, Yb]))

    def test_one_pass_gradient_is_the_per_side_difference(self):
        # grad = grad sum_i t(x_i) / n - grad sum_j w_j t(y_j), each side built on its own
        def side_gradient(p, Z, u):
            A = np.tanh(Z @ p.W.T + p.b)
            S = (u[:, None] * (1.0 - A**2)) * p.v
            return np.concatenate([(S.T @ Z).ravel(), S.sum(axis=0), A.T @ u, [u.sum()]])

        rng = np.random.default_rng(15)
        p = init_params(2, 64, seed=15)
        Xb, Yb = rng.normal(size=(100, 2)), rng.normal(loc=0.5, size=(100, 2))
        _, w = dv_value_and_weights(0.0, mine_forward(p, Yb))
        expected = side_gradient(p, Xb, np.full(100, 1.0 / 100)) - side_gradient(p, Yb, w)
        _, grad = dv_objective_and_gradient(p, Xb, Yb)
        # the c entry, 1 - sum(w), is a cancellation near 0: it can match only to rounding
        np.testing.assert_allclose(grad[:-1], expected[:-1], rtol=1e-12)
        assert abs(grad[-1] - expected[-1]) <= 1e-15

    def test_value_matches_direct_formula(self):
        p = init_params(1, 3, seed=6)
        rng = np.random.default_rng(7)
        Xb = rng.normal(size=(5, 1))
        Yb = rng.normal(size=(5, 1))
        value, _ = dv_objective_and_gradient(p, Xb, Yb)
        tx = np.array([mine_forward(p, x) for x in Xb])
        ty = np.array([mine_forward(p, y) for y in Yb])
        direct = tx.mean() - np.log(np.mean(np.exp(ty)))
        assert value == pytest.approx(direct, abs=1e-12)


class TestMineEstimate:
    def test_same_distribution_small(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(500, 1))
        Y = rng.normal(size=(500, 1))
        cfg = OptimizerConfig(step_size=0.1, max_iter=300, penalty_weight=0.0, seed=8)
        result = mine_estimate(X, Y, cfg)
        assert abs(result.kl_estimate) <= 0.1

    def test_mean_shift_direction(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(2000, 1))
        Y = rng.normal(loc=1.0, size=(2000, 1))
        cfg = OptimizerConfig(step_size=0.2, max_iter=500, penalty_weight=0.0, seed=9)
        result = mine_estimate(X, Y, cfg)
        assert result.kl_estimate == pytest.approx(0.5, abs=0.2)

    def test_seed_determinism(self):
        rng = np.random.default_rng(10)
        X = rng.normal(size=(300, 1))
        Y = rng.normal(loc=0.5, size=(300, 1))
        cfg = OptimizerConfig(step_size=0.1, max_iter=100, seed=5, penalty_weight=0.0)
        r1 = mine_estimate(X, Y, cfg)
        r2 = mine_estimate(X, Y, cfg)
        assert r1.kl_estimate == r2.kl_estimate
        assert np.array_equal(r1.trace.kl_values, r2.trace.kl_values)

    def test_config_is_the_optimizer_config_passed_in(self):
        rng = np.random.default_rng(14)
        X, Y = rng.normal(size=(50, 1)), rng.normal(size=(50, 1))
        cfg = OptimizerConfig(step_size=0.1, max_iter=20, penalty_weight=0.0, seed=3)
        assert mine_estimate(X, Y, cfg).config is cfg
        assert mine_estimate(X, Y).config is MINE_OPTIMIZER
        assert MINE_OPTIMIZER == OptimizerConfig(step_size=0.2, penalty_weight=0.0)

    def test_bandwidth_is_nan(self):
        rng = np.random.default_rng(11)
        result = mine_estimate(rng.normal(size=(50, 1)), rng.normal(size=(50, 1)),
                               OptimizerConfig(max_iter=20, penalty_weight=0.0))
        assert np.isnan(result.bandwidth)

    def test_invalid_inputs(self):
        with pytest.raises(InvalidInputError):
            mine_estimate(np.zeros((1, 1)), np.zeros((5, 1)))
        with pytest.raises(InvalidInputError):
            mine_estimate(np.zeros((5, 1)), np.zeros((5, 2)))

    def test_nan_input_is_invalid_input(self):
        X = np.zeros((5, 1))
        X[2, 0] = np.nan
        with pytest.raises(InvalidInputError, match="non-finite"):
            mine_estimate(X, np.zeros((5, 1)))

    def test_overflowing_step_is_a_numerical_failure_without_numpy_warnings(self):
        rng = np.random.default_rng(12)
        X, Y = rng.normal(size=(200, 1)), rng.normal(loc=1.0, size=(200, 1))
        cfg = OptimizerConfig(step_size=1e308, max_iter=5, penalty_weight=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalFailureError, match="non-finite objective"):
                mine_estimate(X, Y, cfg)
