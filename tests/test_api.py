import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kernelkl
from kernelkl import (
    BenchmarkConfig,
    EstimatorConfig,
    GaussianPairSpec,
    InvalidInputError,
    OptimizerConfig,
    mine_estimate,
)
from kernelkl.estimator import derive_seed

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


#: Public names that only code outside the package calls: perfbench's
#: ``small-sample`` protocol runs ``small_data_benchmark_config``.
OUTSIDE_CALLERS = {"small_data_benchmark_config"}


def test_every_public_name_is_exported_or_used_in_the_package():
    # a top-level public name in src/kernelkl is in kernelkl.__all__ or is
    # referenced by package code other than its own definition; test-only
    # helpers live in tests/reference.py
    modules = [ast.parse(path.read_text()) for path in sorted(Path(kernelkl.__file__).parent.glob("*.py"))]
    statements = [stmt for tree in modules for stmt in tree.body]

    def defined(stmt):
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            return [stmt.name]
        if isinstance(stmt, ast.Assign):
            return [t.id for t in stmt.targets if isinstance(t, ast.Name)]
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            return [stmt.target.id]
        return []

    def referenced(stmt):
        return {node.id if isinstance(node, ast.Name) else node.attr
                for node in ast.walk(stmt) if isinstance(node, (ast.Name, ast.Attribute))}

    uses = [referenced(stmt) for stmt in statements]
    unused = [
        name
        for i, stmt in enumerate(statements)
        for name in defined(stmt)
        if not name.startswith("_") and name not in kernelkl.__all__ and name not in OUTSIDE_CALLERS
        and not any(name in names for j, names in enumerate(uses) if j != i)
    ]
    assert unused == []


@pytest.mark.parametrize("make", [
    pytest.param(lambda: OptimizerConfig(minibatch=64.0), id="minibatch"),
    pytest.param(lambda: OptimizerConfig(max_iter=1e3), id="max_iter"),
    pytest.param(lambda: EstimatorConfig(feature_dim=100.0), id="feature_dim"),
    pytest.param(lambda: BenchmarkConfig(trials=2.5), id="trials"),
    pytest.param(lambda: BenchmarkConfig(dims=(1, 2.0)), id="dims"),
    pytest.param(lambda: BenchmarkConfig(sample_count=50.0), id="benchmark-sample_count"),
    pytest.param(lambda: GaussianPairSpec(1, 0.5, sample_count=50.0), id="sample_count"),
    pytest.param(lambda: GaussianPairSpec(1.0, 0.5, sample_count=50), id="dimension"),
    pytest.param(lambda: mine_estimate(np.zeros((5, 1)), np.ones((5, 1)), OptimizerConfig(max_iter=1e2)), id="mine"),
    # bool is an Integral: max_iter=True would run one step
    pytest.param(lambda: OptimizerConfig(max_iter=True), id="max_iter-bool"),
    pytest.param(lambda: EstimatorConfig(feature_dim=True), id="feature_dim-bool"),
    pytest.param(lambda: BenchmarkConfig(dims=(2, True)), id="dims-bool"),
    pytest.param(lambda: GaussianPairSpec(dimension=True, correlation=0.5, sample_count=10), id="dimension-bool"),
])
def test_count_settings_refuse_non_integers(make):
    with pytest.raises(InvalidInputError, match="must be an integer, got"):
        make()


@pytest.mark.parametrize("make", [
    pytest.param(lambda: OptimizerConfig(seed=1.5), id="optimizer-float"),
    pytest.param(lambda: OptimizerConfig(seed=-1), id="optimizer-negative"),
    pytest.param(lambda: OptimizerConfig(seed=2**63), id="optimizer-2**63"),
    pytest.param(lambda: EstimatorConfig().with_seed(np.float64(3.0)), id="with_seed"),
    pytest.param(lambda: BenchmarkConfig(seed=2**63), id="benchmark-2**63"),
    pytest.param(lambda: BenchmarkConfig(seed=-1), id="benchmark-negative"),
    pytest.param(lambda: GaussianPairSpec(1, 0.5, 50, seed=-1), id="spec-negative"),
    pytest.param(lambda: GaussianPairSpec(1, 0.5, 50, seed=2**64), id="spec-2**64"),
    pytest.param(lambda: GaussianPairSpec(1, 0.5, 50, seed="7"), id="spec-text"),
    pytest.param(lambda: kernelkl.estimate_mi(np.zeros((8, 2)), [0], [1], seed=-1), id="estimate_mi"),
    pytest.param(lambda: derive_seed(2**63, 1), id="derive_seed"),
    pytest.param(lambda: OptimizerConfig(seed=True), id="optimizer-bool"),
    pytest.param(lambda: BenchmarkConfig(trials=2, seed=True), id="benchmark-bool"),
    pytest.param(lambda: GaussianPairSpec(1, 0.5, 10, seed=False), id="spec-bool"),
    pytest.param(lambda: kernelkl.estimate_mi(np.zeros((8, 2)), [0], [1], seed=False), id="estimate_mi-bool"),
    pytest.param(lambda: derive_seed(True, 1), id="derive_seed-bool"),
])
def test_seeds_refuse_all_but_integers_below_2_to_63(make):
    # seeds outside [0, 2**63) used to alias: 2**63 ran seed 0, and -1 ran 2**63 - 1
    with pytest.raises(InvalidInputError, match=r"seed must be an integer in \[0, 2\*\*63\), got"):
        make()


def test_seeds_take_every_integer_below_2_to_63():
    assert OptimizerConfig(seed=np.uint64(2**63 - 1)).seed == 2**63 - 1
    BenchmarkConfig(seed=np.int64(0))
    GaussianPairSpec(1, 0.5, 50, seed=2**63 - 1)
    assert 0 <= derive_seed(2**63 - 1, 1) < 2**32


def test_count_settings_take_numpy_integers():
    cfg = EstimatorConfig(feature_dim=np.int64(8), optimizer=OptimizerConfig(max_iter=np.int32(5), minibatch=np.uint8(4)))
    pairs = kernelkl.sample_gaussian_pairs(GaussianPairSpec(np.int64(1), 0.5, np.int64(20)))
    BenchmarkConfig(dims=(np.int64(1),), sample_count=np.int64(20), trials=np.int64(2))
    assert kernelkl.estimate_mi(pairs, [0], [1], cfg).iterations <= 5
