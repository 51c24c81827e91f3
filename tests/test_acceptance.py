"""Acceptance suite: one criterion per test, one printed PASS/FAIL line each.

Run with ``python3 -m pytest tests/test_acceptance.py -s`` to see the lines as
they complete.  The large-data criteria dominate the runtime (several minutes
total on one CPU); everything else finishes in seconds.
"""

import json
import time

import numpy as np
import pytest

from kernelkl import (
    BenchmarkConfig,
    EstimatorConfig,
    OptimizerConfig,
    analytic_mi,
    estimate_kl,
    estimate_mi,
    run_benchmark,
    sample_gaussian_pairs,
)
from kernelkl.benchmark import small_data_benchmark_config
from kernelkl.cli import main as cli_main
from kernelkl.datasets import write_csv_dataset
from kernelkl.fairness import AuditTable, audit, equality_of_opportunity
from kernelkl.kernels import KernelSpec, apply_feature_map, build_gram, rbf_kernel, sample_feature_map
from kernelkl.mine import dv_objective_and_gradient, init_params, pack_params, unpack_params
from kernelkl.objective import dual_gradient, dual_objective, primal_gradient, primal_objective
from kernelkl.optimize import run_dual, run_primal
from kernelkl.synthetic import GaussianPairSpec


def report(criterion, passed, detail):
    print(f"\n[{criterion}] {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"{criterion}: {detail}"


def test_01_analytic_mi_oracle():
    table = {
        (1, 0.2): 0.020411, (1, 0.5): 0.143841, (1, 0.9): 0.830366,
        (5, 0.2): 0.102055, (5, 0.5): 0.719205, (5, 0.9): 4.151828,
    }
    worst = max(abs(analytic_mi(d, r) - v) for (d, r), v in table.items())
    report("01 analytic-mi-oracle", worst <= 5e-7, f"max abs diff {worst:.2e}, tol 5e-7")


@pytest.mark.slow
def test_02_large_data_mi_bias():
    start = time.perf_counter()
    cfg = BenchmarkConfig(
        estimators=("kkle",), dims=(1,), rhos=(0.2, 0.5, 0.9),
        sample_count=100_000, trials=20, seed=0,
    )
    rows = run_benchmark(cfg).rows
    elapsed = time.perf_counter() - start
    tol = {0.2: 0.05, 0.5: 0.05, 0.9: 0.10}
    detail = ", ".join(f"rho={r.rho}: bias {r.bias:+.4f} (tol {tol[r.rho]})" for r in rows)
    ok = all(abs(r.bias) <= tol[r.rho] for r in rows) and elapsed <= 300
    report("02 large-data-mi-bias", ok, f"{detail}; runtime {elapsed:.0f}s <= 300s")


@pytest.mark.slow
def test_03_small_data_variance_ordering():
    start = time.perf_counter()
    cfg = small_data_benchmark_config(trials=30, seed=0, rhos=(0.9,))
    rows = {r.estimator: r for r in run_benchmark(cfg).rows}
    elapsed = time.perf_counter() - start
    vk, vm = rows["kkle"].variance, rows["mine"].variance
    ok = vk <= vm and elapsed <= 120
    report("03 small-data-variance-ordering", ok,
           f"kernel var {vk:.4f} <= neural var {vm:.4f}; runtime {elapsed:.0f}s <= 120s")


def test_04_gaussian_kl_oracles():
    rng = np.random.default_rng(0)
    n = 100_000
    X = rng.normal(size=(n, 1))
    cfg = EstimatorConfig(optimizer=OptimizerConfig(seed=0))
    shift = estimate_kl(X, rng.normal(loc=1.0, size=(n, 1)), cfg).kl_estimate
    scale = estimate_kl(X, rng.normal(scale=2.0, size=(n, 1)), cfg).kl_estimate
    truth_scale = np.log(2.0) + 1 / 8 - 1 / 2  # KL(N(0,1) || N(0, sd 2)) = 0.318147
    ok = abs(shift - 0.5) <= 0.10 and abs(scale - truth_scale) <= 0.10
    report("04 gaussian-kl-oracles", ok,
           f"mean-shift {shift:.4f} vs 0.5; scale-2 {scale:.4f} vs {truth_scale:.4f}, tol 0.10")


def test_05_self_kl_near_zero():
    worst = 0.0
    cfg = EstimatorConfig()
    for seed in range(10):
        rng = np.random.default_rng(1000 + seed)
        X = rng.normal(size=(10_000, 1))
        Y = rng.normal(size=(10_000, 1))
        est = estimate_kl(X, Y, cfg.with_seed(seed)).kl_estimate
        worst = max(worst, abs(est))
    report("05 self-kl-near-zero", worst <= 0.05, f"max |estimate| {worst:.4f} over 10 seeds, tol 0.05")


def test_06_convexity_suite():
    rng = np.random.default_rng(6)
    worst = -np.inf
    for _ in range(1000):
        X = rng.normal(size=(10, 1))
        Y = rng.normal(size=(10, 1))
        K = build_gram(X, Y, KernelSpec(1.0))
        a1, a2 = rng.normal(size=20), rng.normal(size=20)
        lam = rng.uniform()
        mid = dual_objective(lam * a1 + (1 - lam) * a2, K)
        chord = lam * dual_objective(a1, K) + (1 - lam) * dual_objective(a2, K)
        worst = max(worst, mid - chord)
    report("06 convexity-suite", worst <= 1e-9, f"max convexity violation {worst:.2e}, tol 1e-9")


def _fd(f, x, h=1e-5):
    g = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2 * h)
    return g


def _rel_err(g, fd):
    return np.linalg.norm(g - fd) / max(np.linalg.norm(fd), 1e-8)


def test_07_gradient_suite():
    rng = np.random.default_rng(7)
    worst = 0.0
    for i in range(17):  # dual
        X, Y = rng.normal(size=(4, 1)), rng.normal(size=(4, 1))
        K = build_gram(X, Y, KernelSpec(1.0))
        a = rng.normal(scale=0.5, size=8)
        worst = max(worst, _rel_err(dual_gradient(a, K), _fd(lambda v: dual_objective(v, K), a)))
    for i in range(17):  # primal
        PhiX = rng.normal(scale=0.4, size=(5, 6))
        PhiY = rng.normal(scale=0.4, size=(5, 6))
        b = rng.normal(scale=0.5, size=6)
        worst = max(
            worst,
            _rel_err(primal_gradient(b, PhiX, PhiY), _fd(lambda v: primal_objective(v, PhiX, PhiY), b)),
        )
    for i in range(16):  # neural witness
        p = init_params(2, 3, seed=int(rng.integers(1 << 31)))
        Xb = rng.normal(size=(5, 2))
        Yb = rng.normal(size=(6, 2))
        vec = pack_params(p)
        _, grad = dv_objective_and_gradient(p, Xb, Yb)
        fd = _fd(lambda v: dv_objective_and_gradient(unpack_params(v, 2, 3), Xb, Yb)[0], vec)
        worst = max(worst, _rel_err(grad, fd))
    report("07 gradient-suite", worst <= 1e-4, f"max relative error {worst:.2e} over 50 instances, tol 1e-4")


def test_08_representer_consistency():
    rng = np.random.default_rng(8)
    spec = KernelSpec(1.0)
    worst = 0.0
    for _ in range(50):
        X = rng.normal(size=(3, 1))
        Y = rng.normal(size=(3, 1))
        K = build_gram(X, Y, spec)
        Z = np.vstack([X, Y])
        alpha = rng.normal(size=6)

        def T(z):
            return sum(a * rbf_kernel(zi, z, spec) for a, zi in zip(alpha, Z))

        tx = np.array([T(x) for x in X])
        ty = np.array([T(y) for y in Y])
        direct = np.log(np.mean(np.exp(ty))) - np.mean(tx)
        worst = max(worst, abs(dual_objective(alpha, K) - direct))
    report("08 representer-consistency", worst <= 1e-10, f"max abs diff {worst:.2e}, tol 1e-10")


def test_09_feature_map_fidelity():
    spec = KernelSpec(1.3)
    fm = sample_feature_map(2, 2048, spec, seed=9)
    rng = np.random.default_rng(9)
    errs = []
    for _ in range(100):
        x, y = rng.normal(size=2), rng.normal(size=2)
        errs.append(abs(apply_feature_map(fm, x) @ apply_feature_map(fm, y) - rbf_kernel(x, y, spec)))
    mean_err = float(np.mean(errs))

    # primal and dual paths on the same 500-sample KL task
    X = rng.normal(size=(250, 1))
    Y = rng.normal(loc=1.0, size=(250, 1))
    K = build_gram(X, Y, KernelSpec(1.0))
    _, dual_trace = run_dual(K, OptimizerConfig(step_size=0.05, max_iter=2000, seed=2))
    fm2 = sample_feature_map(1, 2048, KernelSpec(1.0), seed=3)
    PhiX, PhiY = apply_feature_map(fm2, X), apply_feature_map(fm2, Y)
    _, primal_trace = run_primal(PhiX.mean(axis=0), PhiY, OptimizerConfig(step_size=0.5, max_iter=2000, seed=2))
    gap = abs(primal_trace.estimate - dual_trace.estimate)

    ok = mean_err <= 0.03 and gap <= 0.05
    report("09 feature-map-fidelity", ok,
           f"mean kernel error {mean_err:.4f} <= 0.03; primal/dual gap {gap:.4f} <= 0.05")


def test_10_benchmark_identity():
    cfg = BenchmarkConfig(
        estimators=("kkle", "mine"), dims=(1,), rhos=(0.2, 0.9), sample_count=200, trials=5,
        kkle_config=EstimatorConfig(mode="dual", optimizer=OptimizerConfig(step_size=0.2, max_iter=50, minibatch=1_000_000)),
        seed=0,
    )
    rows = run_benchmark(cfg).rows
    worst = max(abs(r.rmse**2 - (r.bias**2 + r.variance)) for r in rows)
    # a reference row reported to 6 decimals satisfies the identity at rounding scale
    ref_residual = abs(0.011378**2 - ((-0.009442) ** 2 + 0.000040))
    ok = worst <= 1e-9 and ref_residual <= 5e-7
    report("10 benchmark-identity", ok,
           f"max own-row residual {worst:.2e} <= 1e-9; reference-row residual {ref_residual:.2e} <= 5e-7")


def test_11_fairness_fixtures():
    cfg = EstimatorConfig(optimizer=OptimizerConfig(max_iter=300))
    rng = np.random.default_rng(11)
    n = 4000
    # independent fixture: everything near zero
    indep = AuditTable(
        predictions=rng.normal(size=n),
        attribute=rng.integers(0, 2, size=n).astype(float),
        labels=rng.integers(0, 2, size=n),
    )
    rep = audit(indep, cfg, seed=11, positive_class=1)
    indep_worst = max(rep.demographic_parity_mi, rep.equality_of_odds_mi, rep.equality_of_opportunity_mi)
    # prediction equals a fair-coin attribute: parity near log 2
    attr = rng.integers(0, 2, size=n).astype(float)
    coin = AuditTable(predictions=attr.copy(), attribute=attr)
    parity = audit(coin, cfg, seed=12).demographic_parity_mi
    # decomposition exactness
    labels = rng.integers(0, 3, size=2000)
    table = AuditTable(predictions=rng.normal(size=2000), attribute=rng.normal(size=2000), labels=labels)
    rep3 = audit(table, cfg, seed=13)
    weighted = sum(
        np.mean(labels == cls) * equality_of_opportunity(table, cls, cfg, seed=13)
        for cls in np.unique(labels)
    )
    decomp_gap = abs(rep3.equality_of_odds_mi - weighted)
    ok = indep_worst <= 0.03 and abs(parity - np.log(2.0)) <= 0.05 and decomp_gap <= 1e-12
    report("11 fairness-fixtures", ok,
           f"independent max MI {indep_worst:.4f} <= 0.03; coin parity {parity:.4f} vs {np.log(2.0):.4f} tol 0.05; "
           f"decomposition gap {decomp_gap:.1e}")


def test_12_cli_determinism(tmp_path, capsys):
    fast = ["--max-iter", "200"]
    rng = np.random.default_rng(12)
    p, q = tmp_path / "p.csv", tmp_path / "q.csv"
    write_csv_dataset(p, ["x"], rng.normal(size=(1000, 1)))
    write_csv_dataset(q, ["x"], rng.normal(loc=1.0, size=(1000, 1)))
    pairs = tmp_path / "pairs.csv"
    fair = tmp_path / "fair.csv"
    write_csv_dataset(
        fair, ["pred", "attr"],
        np.column_stack([rng.normal(size=800), rng.integers(0, 2, size=800).astype(float)]),
    )

    def run(argv):
        code = cli_main(argv)
        out = capsys.readouterr().out
        assert code == 0
        return out

    commands = [
        ["estimate-kl", "--p", str(p), "--q", str(q), "--format", "json", "--seed", "4", *fast],
        ["fairness", "--data", str(fair), "--pred-col", "pred", "--attr-col", "attr", "--seed", "4", *fast],
    ]
    gen = ["generate", "--dim", "1", "--rho", "0.6", "--n", "400", "--seed", "4", "--out", str(pairs)]
    assert run(gen) == run(gen)
    commands.append(["estimate-mi", "--data", str(pairs), "--x-cols", "x1", "--y-cols", "y1",
                     "--format", "json", "--seed", "4", *fast])
    mismatches = sum(run(argv) != run(argv) for argv in commands)
    # benchmark: statistics identical; the runtime column is wall-clock and excluded
    from kernelkl.benchmark import parse_csv_report

    bench = ["benchmark", "--estimators", "kkle", "--dims", "1", "--rhos", "0.5", "--n", "200",
             "--trials", "2", "--jobs", "1", "--mode", "dual", "--step", "0.2",
             "--max-iter", "30", "--batch", "1000000", "--format", "csv", "--seed", "4"]
    stats = []
    for _ in range(2):
        rows = parse_csv_report(run(bench).encode())
        for r in rows:
            r.pop("mean_runtime_seconds")
        stats.append(rows)
    mismatches += stats[0] != stats[1]
    report("12 cli-determinism", mismatches == 0, f"{mismatches} of 5 repeated commands differed")
