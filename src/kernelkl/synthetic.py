"""Correlated-Gaussian generators and closed-form divergence oracles."""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, require_count, require_seed


@dataclass(frozen=True)
class GaussianPairSpec:
    """Componentwise-correlated standard Gaussian pairs (X, Y) in R^D each.

    Each component pair (X_k, Y_k) is bivariate normal with zero mean, unit
    variances, and correlation rho; components are independent across k.
    """

    dimension: int
    correlation: float
    sample_count: int
    seed: int = 0

    def __post_init__(self):
        require_count("dimension", self.dimension)
        require_count("sample_count", self.sample_count)
        if not abs(self.correlation) < 1:
            raise InvalidInputError(f"correlation must lie in (-1, 1), got {self.correlation}")
        require_seed("seed", self.seed)


def sample_gaussian_pairs(spec):
    """Draw N rows of (x_1..x_D, y_1..y_D); deterministic given spec.seed."""
    rng = np.random.default_rng(spec.seed)
    x = rng.standard_normal((spec.sample_count, spec.dimension))
    z = rng.standard_normal((spec.sample_count, spec.dimension))
    y = spec.correlation * x + np.sqrt(1.0 - spec.correlation**2) * z
    return np.hstack([x, y])


def analytic_mi(dimension, rho):
    """True mutual information -(D/2) log(1 - rho^2) in nats."""
    if dimension < 1:
        raise InvalidInputError("dimension must be >= 1")
    if not abs(rho) < 1:
        raise InvalidInputError(f"correlation must lie in (-1, 1), got {rho}")
    return -(dimension / 2.0) * np.log(1.0 - rho**2)


def analytic_gaussian_kl(mu1, sigma1, mu2, sigma2):
    """KL( N(mu1, sigma1^2) || N(mu2, sigma2^2) ) in nats."""
    if sigma1 <= 0 or sigma2 <= 0:
        raise InvalidInputError("standard deviations must be positive")
    return np.log(sigma2 / sigma1) + (sigma1**2 + (mu1 - mu2) ** 2) / (2.0 * sigma2**2) - 0.5
