import os
import subprocess
import sys

import kernelkl

PUBLIC_NAMES = [
    "AuditTable",
    "BenchmarkConfig",
    "BenchmarkReport",
    "BenchmarkRow",
    "EstimateResult",
    "EstimatorConfig",
    "FairnessReport",
    "GaussianPairSpec",
    "InvalidInputError",
    "MineConfig",
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


def test_public_surface_is_the_user_facing_api():
    assert sorted(kernelkl.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(kernelkl, name) is not None


def test_import_path_loads_no_scipy():
    # a fresh interpreter, so modules the test suite itself imports do not count
    src = os.path.dirname(os.path.dirname(os.path.abspath(kernelkl.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    # scipy is not a dependency; the process pool is loaded only by run_benchmark(..., jobs > 1)
    code = (
        "import sys, kernelkl, kernelkl.cli; "
        "print([m for m in sys.modules if m.split('.')[0] == 'scipy' or m == 'concurrent.futures.process'])"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"
