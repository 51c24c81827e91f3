"""Run one workload in a fresh interpreter and print its result as one JSON line.

Usage: python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 --workdir DIR

run.py starts this with kernelkl's sources on PYTHONPATH.  With --trace 0 it
times the untraced loop.  With --trace 1 it runs the untraced loop for half
the time, then the same operations with every target in tracing.TARGETS
wrapped, and reports per-layer numbers.  The spans and per-operation records
are written once, at the end, to DIR/result.json.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np
import scipy

from tracing import TARGETS, Tracer, aggregate, bytes_per_parent, split_by_root
from workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MB = 1e6


@dataclass
class Op:
    index: int
    seconds: float
    output: tuple | None
    error: str | None


def run_loop(workload, budget_s, tracer=None):
    """Closed loop over the cycle: at least one full pass, then until the budget is spent."""
    ops = []
    start = time.perf_counter()
    while len(ops) < len(workload.cycle) or time.perf_counter() - start < budget_s:
        index = len(ops) % len(workload.cycle)
        t0 = time.perf_counter()
        output = error = None
        try:
            with tracer.span("op") if tracer else nullcontext():
                output = workload.run(index, tracer)
        except Exception as exc:  # any failure of one operation is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        ops.append(Op(index, time.perf_counter() - t0, output, error))
    return ops


def check_against(ops, reference):
    """Fail every operation whose output differs from the reference output at its index."""
    for op in ops:
        expected = reference.get(op.index)
        if op.error is None and expected is not None and op.output != expected:
            op.error = "output differs from the first run of the same inputs"


def first_pass(ops, n):
    return {op.index: op.output for op in ops[:n] if op.error is None}


def accuracy(workload, ops):
    outputs = first_pass(ops, len(workload.cycle))
    if len(outputs) < len(workload.cycle):
        return {}
    return workload.accuracy([outputs[i] for i in range(len(workload.cycle))])


def end_to_end(workload, ops):
    seconds = [op.seconds for op in ops]
    peak_kb, processes = workload.peak_rss_kb()
    metrics = {
        "op_s_p50": (statistics.median(seconds), len(seconds)),
        "peak_rss_mb": (peak_kb * 1024 / MB, processes),
        "error_rate": (sum(op.error is not None for op in ops) / len(ops), len(ops)),
    }
    metrics.update(accuracy(workload, ops))
    return metrics


def op_layers(spans):
    """Per-layer numbers for one traced operation."""
    agg = aggregate(spans)

    def total(*names):
        return sum(agg[n].total_s for n in names if n in agg)

    def self_time(name):
        return agg[name].self_s if name in agg else 0.0

    def count(name, key):
        return agg[name].counts.get(key, 0) if name in agg else 0

    opt = ("optimize.run_primal", "optimize.run_dual")
    run_s = total(*opt)
    iterations = sum(count(n, "iterations") for n in opt)
    return agg, {
        "datasets.read_csv_s": total("datasets.read_csv"),
        "estimator.prepare_s": total("estimator.joint_and_product") + self_time("estimator.estimate_kl"),
        "kernels.bandwidth_s": total("kernels.bandwidth"),
        "kernels.feature_map_s": total("kernels.sample_feature_map", "kernels.apply_feature_map"),
        "kernels.feature_bytes_mb": bytes_per_parent(spans, "kernels.apply_feature_map") / MB,
        "kernels.gram_s": total("kernels.build_gram"),
        "kernels.gram_bytes_mb": bytes_per_parent(spans, "kernels.build_gram") / MB,
        "optimize.run_s": run_s,
        "optimize.step_us": 1e6 * run_s / iterations if iterations else 0.0,
        "optimize.iterations": iterations,
        "mine.run_s": total("mine.mine_estimate"),
        "mine.iterations": count("mine.mine_estimate", "iterations"),
        "fairness.estimate_calls": agg["fairness.estimate_mi"].calls if "fairness.estimate_mi" in agg else 0,
        "fairness.estimate_s": total("fairness.estimate_mi"),
        "benchmark.overhead_s": self_time("benchmark.run_benchmark"),
        "cli.self_s": self_time("cli.main"),
    }


def per_layer(workload, tracer, traced, untraced):
    """Medians over traced operations of each per-layer number, plus run-level ones."""
    by_root = split_by_root(tracer.spans)
    rows, aggs = [], []
    for op, root in zip(traced, sorted(by_root)):
        agg, row = op_layers(by_root[root])
        if op.error is None:
            try:
                workload.check_trace(agg)
            except Exception as exc:  # a failed span check fails the operation
                op.error = f"{type(exc).__name__}: {exc}"
        rows.append(row)
        aggs.append(agg)
    metrics = {name: (float(statistics.median(r[name] for r in rows)), len(rows)) for name in rows[0]}
    runs = sum(s.counts.get("runs", 0) for s in tracer.spans if s.name.startswith("optimize."))
    converged = sum(s.counts.get("converged", 0) for s in tracer.spans if s.name.startswith("optimize."))
    metrics["optimize.converged_frac"] = (converged / runs if runs else 0.0, runs)
    traced_p50 = statistics.median(op.seconds for op in traced)
    untraced_p50 = statistics.median(op.seconds for op in untraced)
    metrics["trace.overhead_s"] = (traced_p50 - untraced_p50, len(traced))
    called = {s.name for s in tracer.spans}
    absent = [name for _, _, name in TARGETS if name not in called]
    # name -> (calls, total s, self s), each a mean per traced operation
    spans = {
        name: tuple(sum(getattr(a[name], key) for a in aggs if name in a) / len(aggs)
                    for key in ("calls", "total_s", "self_s"))
        for name in sorted(called)
    }
    return metrics, absent, spans


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10)
    except OSError:
        return None
    return out.stdout.strip() or None


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "num_threads_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "commit": git_commit(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed, args.workdir, dict(os.environ))
    budget = args.seconds / 2 if args.trace else args.seconds
    untraced = run_loop(workload, budget)
    check_against(untraced, first_pass(untraced, len(workload.cycle)))
    result = {"workload": workload.name, "seed": args.seed, "trace": args.trace, "env": environment()}
    ops = untraced
    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_loop(workload, budget, tracer)
        finally:
            tracer.uninstall()
        check_against(traced, first_pass(untraced, len(workload.cycle)))
        metrics, absent, span_summary = per_layer(workload, tracer, traced, untraced)
        metrics.update(accuracy(workload, traced))
        result.update(metrics=metrics, absent=absent, missing=tracer.missing, spans=span_summary)
        ops = untraced + traced
        spans = tracer.records()
    else:
        result["metrics"] = end_to_end(workload, untraced)
        spans = []
    result["attempted"] = len(ops)
    result["errors"] = [f"op {i} (cycle index {op.index}): {op.error}" for i, op in enumerate(ops) if op.error]
    record = dict(result, ops=[vars(op) for op in ops], spans=spans)
    with open(os.path.join(args.workdir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
