"""kernelkl benchmark: one workload, one seed, one timed run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: cli-mi-100k, fairness-audit-10k, small-sample (see README.md).
The program is imported from the checkout's own src/ directory; nothing needs
building.  Every line but the last is a human-readable report; the last line
is one JSON object {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are the end-to-end ones in BENCHMARK.json, measured with
tracing off; with --trace 1 they are the per-layer ones from a traced run.
The exit code is 0 when every output check passed, 1 when one failed, and 2
when the benchmark could not run at all (for example, no src/kernelkl).
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKER_TIMEOUT_S = 160
# set-up is the import of kernelkl in a fresh interpreter.  One untimed probe
# first fills the page cache and writes bytecode, as any earlier use would
# have; the median of several more keeps one slow start from deciding it.
SETUP_PROBES = 7
PROBE = "import time; t = time.perf_counter(); import kernelkl; print(time.perf_counter() - t); print(kernelkl.__file__)"

# metric name -> (unit, note); the note says how it is made
END_TO_END = {
    "setup_s": ("s", "median wall time to import kernelkl in a fresh interpreter"),
    "op_s_p50": ("s", "median wall time per operation, tracing off"),
    "peak_rss_mb": ("MB", "peak RSS of the process doing the work (each CLI child on cli-mi-100k)"),
}
# printed with the end-to-end report; their values are exact at a fixed seed but
# spread with the seed, so BENCHMARK.json carries them with the per-layer metrics
ACCURACY = {
    "rmse_nats": ("nats", "RMSE of every KKLE estimate in the first pass against the closed-form truth"),
    "sd_nats": ("nats", "root-mean of the seed-to-seed variance within each rho or class cell"),
    "mine_rmse_nats": ("nats", "RMSE of every MINE estimate in the first pass (small-sample only)"),
}
REPORT_ONLY = {"error_rate": ("1", "failed operations / attempted operations")}
PER_LAYER = {
    "datasets.read_csv_s": ("s", "read_csv_dataset"),
    "estimator.prepare_s": ("s", "joint_and_product + estimate_kl self time (validation)"),
    "kernels.bandwidth_s": ("s", "median_heuristic_bandwidth"),
    "kernels.feature_map_s": ("s", "sample_feature_map + apply_feature_map"),
    "kernels.feature_bytes_mb": ("MB", "computed from array shapes: feature matrices of one estimate"),
    "kernels.gram_s": ("s", "build_gram"),
    "kernels.gram_bytes_mb": ("MB", "computed from array shapes: Gram matrix of one estimate"),
    "optimize.run_s": ("s", "run_primal + run_dual"),
    "optimize.step_us": ("us", "optimize.run_s / optimize.iterations"),
    "optimize.iterations": ("count", "iterations of run_primal + run_dual"),
    "optimize.converged_frac": ("1", "converged optimizer runs / runs, over the traced run"),
    "mine.run_s": ("s", "mine_estimate"),
    "mine.iterations": ("count", "iterations of mine_estimate"),
    "fairness.estimate_calls": ("count", "estimate_mi calls made by fairness"),
    "fairness.estimate_s": ("s", "estimate_mi calls made by fairness"),
    "benchmark.overhead_s": ("s", "run_benchmark wall time minus its estimator spans"),
    "cli.self_s": ("s", "cli.main self time: argument parsing and JSON output"),
    "trace.overhead_s": ("s", "traced time per operation minus untraced op_s_p50"),
    **ACCURACY,
}


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def setup_seconds():
    values = []
    for _ in range(1 + SETUP_PROBES):
        out = subprocess.run([sys.executable, "-c", PROBE], env=child_env(), cwd=ROOT, capture_output=True,
                             text=True, timeout=60, check=True)
        seconds, path = out.stdout.split("\n")[:2]
        if not os.path.abspath(path).startswith(SRC + os.sep):
            raise RuntimeError(f"kernelkl was imported from {path}, not from {SRC}")
        values.append(float(seconds))
    return statistics.median(values[1:]), SETUP_PROBES


def run_worker(args, workdir):
    argv = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace), "--workdir", workdir]
    # own session, so a timeout can stop the worker together with its CLI children
    proc = subprocess.Popen(argv, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise RuntimeError(f"worker did not finish within {WORKER_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(out.decode().strip().splitlines()[-1])


def declared_metrics():
    """(end_to_end, per_layer) name -> unit from BENCHMARK.json, or None if it is absent."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        spec = json.load(fh)
    return tuple({m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer"))


def report(title, table, metrics):
    print(title)
    for name, (unit, note) in table.items():
        if name in metrics:
            value, n = metrics[name]
            print(f"  {name:26s} {value:14.6g} {unit:6s} n={n:<5d} {note}")
        else:
            print(f"  {name:26s} {'absent':>14s} {unit:6s}         {note}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "kernelkl", "__init__.py")):
        print(f"error: {SRC}/kernelkl not found; run from the root of a kernelkl checkout", file=sys.stderr)
        return 2
    declared = declared_metrics()
    if declared is not None:
        ours = ({k: v[0] for k, v in END_TO_END.items()}, {k: v[0] for k, v in PER_LAYER.items()})
        if declared != ours:
            print("error: BENCHMARK.json metrics do not match perfbench/run.py", file=sys.stderr)
            return 2

    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        if args.trace == 0:
            setup = setup_seconds()
        result = run_worker(args, workdir)
        shutil.copyfile(os.path.join(workdir, "result.json"),
                        os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"))
    except (RuntimeError, OSError, ValueError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = result["metrics"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"attempted {result['attempted']}  failed {len(result['errors'])}")
    print("env " + json.dumps(result["env"], sort_keys=True))
    for line in result["errors"]:
        print("FAILED " + line)
    if args.trace == 0:
        metrics["setup_s"] = setup
        report("end-to-end", {**END_TO_END, **ACCURACY, **REPORT_ONLY}, metrics)
        table = END_TO_END
    else:
        report("per-layer (medians over traced operations)", PER_LAYER, metrics)
        print(f"spans (means per traced operation)  {'calls':>8s} {'total_s':>10s} {'self_s':>10s}")
        for name, (calls, total_s, self_s) in result["spans"].items():
            print(f"  {name:32s} {calls:8.3g} {total_s:10.4g} {self_s:10.4g}")
        print("absent spans (never called): " + (", ".join(result["absent"]) or "none"))
        if result["missing"]:
            print("  of which no longer defined: " + ", ".join(result["missing"]))
        table = PER_LAYER
    correct = not result["errors"]
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": len(result["errors"]),
        "metrics": {name: {"value": metrics.get(name, [0.0])[0], "unit": unit} for name, (unit, _) in table.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
