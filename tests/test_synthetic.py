import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kernelkl import (
    GaussianPairSpec,
    InvalidInputError,
    analytic_gaussian_kl,
    analytic_mi,
    sample_gaussian_pairs,
)


class TestSampleGaussianPairs:
    def test_shape_and_determinism(self):
        spec = GaussianPairSpec(dimension=3, correlation=0.4, sample_count=500, seed=9)
        a = sample_gaussian_pairs(spec)
        b = sample_gaussian_pairs(spec)
        assert a.shape == (500, 6)
        assert np.array_equal(a, b)

    def test_independent_when_uncorrelated(self):
        spec = GaussianPairSpec(dimension=2, correlation=0.0, sample_count=100_000, seed=1)
        data = sample_gaussian_pairs(spec)
        for k in range(2):
            r = np.corrcoef(data[:, k], data[:, 2 + k])[0, 1]
            assert abs(r) <= 0.02

    def test_target_correlation(self):
        spec = GaussianPairSpec(dimension=1, correlation=0.9, sample_count=100_000, seed=2)
        data = sample_gaussian_pairs(spec)
        r = np.corrcoef(data[:, 0], data[:, 1])[0, 1]
        assert abs(r - 0.9) <= 0.01

    def test_unit_marginal_variances(self):
        spec = GaussianPairSpec(dimension=2, correlation=0.5, sample_count=100_000, seed=3)
        data = sample_gaussian_pairs(spec)
        np.testing.assert_allclose(data.var(axis=0), 1.0, atol=0.02)

    def test_cross_component_independence(self):
        spec = GaussianPairSpec(dimension=2, correlation=0.8, sample_count=100_000, seed=4)
        data = sample_gaussian_pairs(spec)
        # x1 correlates with y1 but not with x2 or y2
        assert abs(np.corrcoef(data[:, 0], data[:, 3])[0, 1]) <= 0.02
        assert abs(np.corrcoef(data[:, 0], data[:, 1])[0, 1]) <= 0.02

    def test_invalid_specs(self):
        with pytest.raises(InvalidInputError):
            GaussianPairSpec(dimension=0, correlation=0.5, sample_count=10)
        with pytest.raises(InvalidInputError):
            GaussianPairSpec(dimension=1, correlation=1.0, sample_count=10)
        with pytest.raises(InvalidInputError, match="seed"):
            GaussianPairSpec(dimension=1, correlation=0.5, sample_count=10, seed=-1)


class TestAnalyticMi:
    def test_zero_correlation(self):
        assert analytic_mi(1, 0.0) == 0.0

    @pytest.mark.parametrize(
        "dim, rho, expected",
        [
            (1, 0.2, 0.020411),
            (1, 0.5, 0.143841),
            (1, 0.9, 0.830366),
            (5, 0.2, 0.102055),
            (5, 0.5, 0.719205),
            (5, 0.9, 4.151828),
        ],
    )
    def test_reference_values(self, dim, rho, expected):
        assert analytic_mi(dim, rho) == pytest.approx(expected, abs=5e-7)

    def test_invalid_correlation(self):
        with pytest.raises(InvalidInputError):
            analytic_mi(1, 1.0)
        with pytest.raises(InvalidInputError):
            analytic_mi(1, -1.5)

    def test_invalid_dimension(self):
        with pytest.raises(InvalidInputError, match="dimension must be >= 1"):
            analytic_mi(0, 0.5)


class TestAnalyticGaussianKl:
    def test_identical_is_zero(self):
        assert analytic_gaussian_kl(0.3, 1.7, 0.3, 1.7) == 0.0

    def test_mean_shift(self):
        assert analytic_gaussian_kl(0, 1, 1, 1) == pytest.approx(0.5)

    def test_variance_change(self):
        assert analytic_gaussian_kl(0, 1, 0, 2) == pytest.approx(np.log(2) + 1 / 8 - 1 / 2)

    def test_invalid_sigma(self):
        with pytest.raises(InvalidInputError):
            analytic_gaussian_kl(0, 0, 0, 1)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=8),
    st.floats(min_value=-0.99, max_value=0.99, allow_nan=False),
)
def test_analytic_mi_properties(dim, rho):
    mi = analytic_mi(dim, rho)
    assert mi >= 0
    assert mi == pytest.approx(analytic_mi(dim, -rho))
    assert mi == pytest.approx(dim * analytic_mi(1, rho), rel=1e-12, abs=1e-12)
    if abs(rho) < 0.98:
        assert analytic_mi(dim, min(0.99, abs(rho) + 0.01)) >= mi


@settings(max_examples=60, deadline=None)
@given(
    st.floats(min_value=-3, max_value=3),
    st.floats(min_value=0.2, max_value=4),
    st.floats(min_value=-3, max_value=3),
    st.floats(min_value=0.2, max_value=4),
)
def test_gaussian_kl_nonnegative(mu1, s1, mu2, s2):
    kl = analytic_gaussian_kl(mu1, s1, mu2, s2)
    assert kl >= -1e-12
    if kl <= 1e-12:
        assert mu1 == pytest.approx(mu2, abs=1e-5) and s1 == pytest.approx(s2, abs=1e-5)
