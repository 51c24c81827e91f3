import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from kernelkl import InvalidInputError
from kernelkl.kernels import KernelSpec
from kernelkl.optimize import dv_value_and_weights
from reference import (
    build_gram,
    dual_gradient,
    dual_objective,
    log_mean_exp,
    primal_gradient,
    primal_objective,
    rbf_kernel,
)


def random_instance(n, m, dim=1, seed=0, bandwidth=1.0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, dim))
    Y = rng.normal(loc=0.5, size=(m, dim))
    K = build_gram(X, Y, KernelSpec(bandwidth))
    return X, Y, K, rng


class TestLogMeanExp:
    def test_constant_vector_exact(self):
        assert log_mean_exp([3.2, 3.2, 3.2, 3.2]) == 3.2

    def test_two_values(self):
        # log((1 + 3) / 2) = log 2
        assert log_mean_exp([0.0, np.log(3.0)]) == pytest.approx(np.log(2.0), abs=1e-12)

    def test_no_overflow(self):
        assert log_mean_exp([1000.0, 1000.0]) == 1000.0

    def test_large_spread(self):
        assert log_mean_exp([-1000.0, 1000.0]) == pytest.approx(1000.0 - np.log(2.0))

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            log_mean_exp([])

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidInputError):
            log_mean_exp([0.0, np.inf])


class TestDvValueAndWeights:
    def test_value_is_p_mean_minus_log_mean_exp(self):
        q = np.random.default_rng(0).normal(size=50)
        value, _ = dv_value_and_weights(0.3, q)
        assert value == pytest.approx(0.3 - log_mean_exp(q), abs=1e-12)

    def test_weights_are_softmax(self):
        q = np.random.default_rng(1).normal(scale=3.0, size=50)
        _, w = dv_value_and_weights(0.0, q)
        np.testing.assert_allclose(w, scipy.special.softmax(q), rtol=1e-12)
        assert w.sum() == pytest.approx(1.0, abs=1e-12)

    def test_finite_at_extreme_scores(self):
        value, w = dv_value_and_weights(1.0, np.array([1000.0, -1000.0, 1000.0]))
        assert value == pytest.approx(1.0 - (1000.0 + np.log(2.0 / 3.0)))
        np.testing.assert_array_equal(w, [0.5, 0.0, 0.5])

    def test_float32_scores_keep_float32_weights(self):
        _, w = dv_value_and_weights(0.0, np.linspace(-2, 2, 9, dtype=np.float32))
        assert w.dtype == np.float32

    @pytest.mark.parametrize("scale", [0.1, 3.0, 300.0])
    def test_counts_stand_for_repeated_scores(self, scale):
        # each score stands for counts[j] equal scores: the value is the
        # expanded scores' value, and weight j the sum of their weights
        rng = np.random.default_rng(2)
        q, counts = rng.normal(scale=scale, size=7), rng.integers(1, 900, size=7)
        value, w = dv_value_and_weights(0.4, q, counts)
        expanded_value, expanded_w = dv_value_and_weights(0.4, np.repeat(q, counts))
        assert abs(value - expanded_value) <= 1e-15 * max(1.0, abs(expanded_value))
        group_sums = np.add.reduceat(expanded_w, np.cumsum(counts) - counts)
        np.testing.assert_allclose(w, group_sums, rtol=0, atol=1e-15)
        assert w.sum() == pytest.approx(1.0, abs=1e-15)

    def test_unit_counts_give_the_same_bits(self):
        q = np.random.default_rng(3).normal(size=40)
        value, w = dv_value_and_weights(0.2, q)
        counted_value, counted_w = dv_value_and_weights(0.2, q, np.ones(40, dtype=np.int64))
        assert (counted_value, counted_w.tobytes()) == (value, w.tobytes())


class TestDualObjective:
    def test_zero_weights(self):
        _, _, K, _ = random_instance(4, 5)
        assert dual_objective(np.zeros(K.size), K) == 0.0

    def test_coincident_samples_any_alpha(self):
        Z = np.zeros((3, 1))
        K = build_gram(Z, Z, KernelSpec(1.0))
        rng = np.random.default_rng(1)
        for _ in range(5):
            alpha = rng.normal(size=6)
            assert dual_objective(alpha, K) == pytest.approx(0.0, abs=1e-12)

    def test_matches_representer_expansion(self):
        # T(z) = sum_i alpha_i k(z_i, z), evaluated entirely without the Gram matrix
        X, Y, K, rng = random_instance(3, 3, seed=7)
        spec = KernelSpec(1.0)
        Z = np.vstack([X, Y])
        for trial in range(10):
            alpha = rng.normal(size=6)

            def T(z):
                return sum(a * rbf_kernel(zi, z, spec) for a, zi in zip(alpha, Z))

            tx = np.array([T(x) for x in X])
            ty = np.array([T(y) for y in Y])
            direct = np.log(np.mean(np.exp(ty))) - np.mean(tx)
            assert dual_objective(alpha, K) == pytest.approx(direct, abs=1e-10)

    def test_dimension_mismatch(self):
        _, _, K, _ = random_instance(3, 3)
        with pytest.raises(InvalidInputError):
            dual_objective(np.zeros(5), K)


def finite_difference(f, x, h=1e-5):
    grad = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        grad[i] = (f(x + e) - f(x - e)) / (2 * h)
    return grad


class TestDualGradient:
    @pytest.mark.parametrize("seed", range(5))
    def test_finite_differences(self, seed):
        _, _, K, rng = random_instance(3, 3, seed=seed)
        alpha = rng.normal(scale=0.5, size=6)
        pw = 1e-2

        def f(a):
            return dual_objective(a, K) + pw * a @ K.entries @ a

        grad = dual_gradient(alpha, K, penalty_weight=pw)
        fd = finite_difference(f, alpha)
        np.testing.assert_allclose(grad, fd, rtol=1e-5, atol=1e-8)

    def test_zero_alpha_identical_sets(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(4, 1))
        K = build_gram(X, X, KernelSpec(1.0))
        grad = dual_gradient(np.zeros(8), K, penalty_weight=0.0)
        np.testing.assert_allclose(grad, 0.0, atol=1e-12)

    def test_penalty_linearity(self):
        _, _, K, rng = random_instance(4, 3, seed=9)
        alpha = rng.normal(size=7)
        g0 = dual_gradient(alpha, K, penalty_weight=0.0)
        g1 = dual_gradient(alpha, K, penalty_weight=0.25)
        np.testing.assert_allclose(g1 - g0, 2 * 0.25 * (K.entries @ alpha), atol=1e-12)

    def test_matches_quotient_form(self):
        # softmax form == the literal per-coordinate exp-quotient expression
        _, _, K, rng = random_instance(3, 4, seed=4)
        alpha = rng.normal(size=7)
        Ky = K.entries[K.n :]
        scores = Ky @ alpha
        w = np.exp(scores) / np.sum(np.exp(scores))
        literal = Ky.T @ w - np.mean(K.entries[: K.n], axis=0)
        np.testing.assert_allclose(dual_gradient(alpha, K), literal, atol=1e-12)


class TestPrimalObjective:
    def setup_method(self):
        rng = np.random.default_rng(5)
        self.PhiX = rng.normal(scale=0.3, size=(3, 8))
        self.PhiY = rng.normal(scale=0.3, size=(4, 8))
        self.rng = rng

    def test_zero_weights(self):
        assert primal_objective(np.zeros(8), self.PhiX, self.PhiY) == 0.0

    def test_identical_features_nonpositive_estimate(self):
        # Jensen: log-mean-exp >= mean, so g >= 0 and the estimate <= 0
        for _ in range(10):
            beta = self.rng.normal(size=8)
            assert -primal_objective(beta, self.PhiX, self.PhiX) <= 1e-12
        assert -primal_objective(np.zeros(8), self.PhiX, self.PhiX) == 0.0

    def test_matches_direct_summation(self):
        beta = self.rng.normal(size=8)
        direct = np.log(np.mean([np.exp(beta @ phi) for phi in self.PhiY])) - np.mean(
            [beta @ phi for phi in self.PhiX]
        )
        assert primal_objective(beta, self.PhiX, self.PhiY) == pytest.approx(direct, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInputError):
            primal_objective(np.zeros(7), self.PhiX, self.PhiY)
        with pytest.raises(InvalidInputError, match="share one feature dimension"):
            primal_objective(np.zeros(8), self.PhiX, self.PhiY[:, :7])


class TestPrimalGradient:
    @pytest.mark.parametrize("seed", range(5))
    def test_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        PhiX = rng.normal(scale=0.4, size=(4, 6))
        PhiY = rng.normal(scale=0.4, size=(5, 6))
        beta = rng.normal(scale=0.5, size=6)
        pw = 1e-2

        def f(b):
            return primal_objective(b, PhiX, PhiY) + pw * b @ b

        grad = primal_gradient(beta, PhiX, PhiY, penalty_weight=pw)
        fd = finite_difference(f, beta)
        np.testing.assert_allclose(grad, fd, rtol=1e-5, atol=1e-8)

    def test_zero_beta_identical_features(self):
        rng = np.random.default_rng(8)
        Phi = rng.normal(size=(5, 6))
        np.testing.assert_allclose(primal_gradient(np.zeros(6), Phi, Phi), 0.0, atol=1e-12)

    def test_penalty_linearity(self):
        rng = np.random.default_rng(9)
        PhiX = rng.normal(size=(3, 6))
        PhiY = rng.normal(size=(3, 6))
        beta = rng.normal(size=6)
        g0 = primal_gradient(beta, PhiX, PhiY, penalty_weight=0.0)
        g1 = primal_gradient(beta, PhiX, PhiY, penalty_weight=0.1)
        np.testing.assert_allclose(g1 - g0, 0.2 * beta, atol=1e-12)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.floats(min_value=0.0, max_value=1.0))
def test_dual_convexity_property(seed, lam):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(4, 1))
    Y = rng.normal(size=(4, 1))
    K = build_gram(X, Y, KernelSpec(1.0))
    a1 = rng.normal(size=8)
    a2 = rng.normal(size=8)
    mid = dual_objective(lam * a1 + (1 - lam) * a2, K)
    chord = lam * dual_objective(a1, K) + (1 - lam) * dual_objective(a2, K)
    assert mid <= chord + 1e-9


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.floats(min_value=0.0, max_value=1.0))
def test_primal_convexity_property(seed, lam):
    rng = np.random.default_rng(seed)
    PhiX = rng.normal(scale=0.5, size=(4, 5))
    PhiY = rng.normal(scale=0.5, size=(4, 5))
    b1 = rng.normal(size=5)
    b2 = rng.normal(size=5)
    mid = primal_objective(lam * b1 + (1 - lam) * b2, PhiX, PhiY)
    chord = lam * primal_objective(b1, PhiX, PhiY) + (1 - lam) * primal_objective(b2, PhiX, PhiY)
    assert mid <= chord + 1e-9


def test_shift_invariance_of_functional():
    # adding a constant c to T leaves mean_P[T] - log mean_Q[exp T] unchanged;
    # realized by augmenting the features with a constant coordinate
    rng = np.random.default_rng(13)
    PhiX = rng.normal(size=(6, 4))
    PhiY = rng.normal(size=(7, 4))
    beta = rng.normal(size=4)
    base = primal_objective(beta, PhiX, PhiY)
    c = 2.71
    PhiX_aug = np.hstack([PhiX, np.ones((6, 1))])
    PhiY_aug = np.hstack([PhiY, np.ones((7, 1))])
    shifted = primal_objective(np.append(beta, c), PhiX_aug, PhiY_aug)
    assert shifted == pytest.approx(base, abs=1e-10)


def test_gradient_bounded_on_feasible_set():
    # Lipschitz claim exercised as finiteness under large feasible weights
    rng = np.random.default_rng(17)
    X = rng.normal(size=(10, 1))
    Y = rng.normal(size=(10, 1))
    K = build_gram(X, Y, KernelSpec(1.0))
    for _ in range(20):
        alpha = rng.normal(scale=5.0, size=20)
        grad = dual_gradient(alpha, K, penalty_weight=1e-3)
        assert np.all(np.isfinite(grad))
        assert np.linalg.norm(grad, 1) < 1e6
