"""Kernel-machine estimation of KL divergence and mutual information.

The estimator maximizes the Donsker-Varadhan lower bound over an RKHS norm
ball, solved as a convex problem either over Gram-matrix coefficients or over
random Fourier feature coordinates.  A one-hidden-layer neural baseline, a
bias/RMSE/variance benchmark harness, and MI-based fairness metrics round out
the package.

This namespace holds what users call.  Building blocks (kernels, the
Donsker-Varadhan objective, the optimizers, the network witness) are imported
from their submodules, e.g. ``from kernelkl.kernels import build_gram``.
"""

from .benchmark import BenchmarkConfig, BenchmarkReport, BenchmarkRow, emit_report, run_benchmark
from .errors import InvalidInputError, NumericalFailureError
from .estimator import EstimateResult, EstimatorConfig, estimate_kl, estimate_mi
from .fairness import (
    AuditTable,
    FairnessReport,
    audit,
    demographic_parity,
    equality_of_odds,
    equality_of_opportunity,
)
from .mine import mine_estimate
from .optimize import OptimizerConfig
from .synthetic import GaussianPairSpec, analytic_gaussian_kl, analytic_mi, sample_gaussian_pairs

__version__ = "0.1.0"

__all__ = [
    "AuditTable",
    "BenchmarkConfig",
    "BenchmarkReport",
    "BenchmarkRow",
    "EstimateResult",
    "EstimatorConfig",
    "FairnessReport",
    "GaussianPairSpec",
    "InvalidInputError",
    "NumericalFailureError",
    "OptimizerConfig",
    "analytic_gaussian_kl",
    "analytic_mi",
    "audit",
    "demographic_parity",
    "emit_report",
    "equality_of_odds",
    "equality_of_opportunity",
    "estimate_kl",
    "estimate_mi",
    "mine_estimate",
    "run_benchmark",
    "sample_gaussian_pairs",
]
