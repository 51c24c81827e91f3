"""The benchmark's three workloads.

Each is a closed loop: one client in one process makes sequential calls with
jobs=1 and BLAS threads at their default.  A workload makes every input from
the run seed before timing starts, runs one operation per call, and checks the
operation's output; a failed check raises CheckFailed.

Operations cycle through a fixed list.  The first pass over the list is the
accuracy panel, so the estimate-derived metrics are exact at a fixed seed
however many operations fit in the run; every later pass must reproduce the
first pass exactly.
"""

import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
from contextlib import nullcontext

import numpy as np

from kernelkl.benchmark import BenchmarkConfig, run_benchmark, small_data_benchmark_config
from kernelkl.datasets import write_csv_dataset
from kernelkl.estimator import EstimatorConfig
from kernelkl.fairness import AuditTable, audit
from kernelkl.optimize import OptimizerConfig
from kernelkl.synthetic import GaussianPairSpec, analytic_mi, sample_gaussian_pairs

HERE = os.path.dirname(os.path.abspath(__file__))
TRACED_CLI = os.path.join(HERE, "traced_cli.py")


class CheckFailed(Exception):
    """An operation's output failed its check."""


def derive_seed(seed, tag):
    return int(np.random.SeedSequence([int(seed), int(tag)]).generate_state(1)[0])


def spawn(argv, env):
    """Run a child to completion; return (exit code, stdout, stderr, its own peak RSS in KiB).

    os.wait4 reads the rusage of this child alone; RUSAGE_CHILDREN would
    report the largest of every child reaped so far.
    """
    with tempfile.TemporaryFile() as err:
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, env=env)
        with proc.stdout:
            out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        return proc.returncode, out, err.read().decode(errors="replace"), usage.ru_maxrss


def _check_mi(name, value):
    if not (math.isfinite(value) and value >= 0):
        raise CheckFailed(f"{name} = {value!r} is not a finite nonnegative MI")


def estimate_stats(records):
    """RMSE over (cell, estimate, truth) records and root-mean within-cell variance."""
    rmse = math.sqrt(statistics.fmean((v - t) ** 2 for _, v, t in records))
    cells = {}
    for cell, value, _ in records:
        cells.setdefault(cell, []).append(value)
    sd = math.sqrt(statistics.fmean(statistics.pvariance(v) for v in cells.values()))
    return {"rmse_nats": (rmse, len(records)), "sd_nats": (sd, len(cells))}


class Workload:
    """One workload; ``cycle`` lists the distinct operations in run order."""

    name = ""
    cycle = ()

    def run(self, index, tracer):
        """Run operation ``cycle[index]`` and return its output as a comparable tuple."""
        raise NotImplementedError

    def peak_rss_kb(self):
        """(peak RSS in KiB of the process doing the work, number of processes measured)."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, 1

    def accuracy(self, outputs):
        """Estimate-derived metrics over one pass: name -> (value, sample count)."""
        raise NotImplementedError

    def check_trace(self, agg):
        """Check one traced operation's span aggregate; raise CheckFailed on a mismatch."""


class CliMi(Workload):
    name = "cli-mi-100k"
    rows = 100_000
    rhos = (0.2, 0.9)
    estimator_seeds = (0, 1, 2)

    def __init__(self, seed, workdir, env):
        self.env = env
        self.workdir = workdir
        self.child_rss_kb = []
        self.paths = {}
        for i, rho in enumerate(self.rhos):
            spec = GaussianPairSpec(dimension=1, correlation=rho, sample_count=self.rows, seed=derive_seed(seed, i))
            self.paths[rho] = os.path.join(workdir, f"pairs-rho{rho}.csv")
            write_csv_dataset(self.paths[rho], ["x1", "y1"], sample_gaussian_pairs(spec))
        self.cycle = [(rho, s) for s in self.estimator_seeds for rho in self.rhos]

    def run(self, index, tracer):
        rho, seed = self.cycle[index]
        cli_args = ["estimate-mi", "--data", self.paths[rho], "--x-cols", "x1", "--y-cols", "y1",
                    "--seed", str(seed), "--format", "json"]
        if tracer is None:
            argv = [sys.executable, "-m", "kernelkl", *cli_args]
        else:
            spans_path = os.path.join(self.workdir, "cli-spans.json")
            argv = [sys.executable, TRACED_CLI, spans_path, "--", *cli_args]
        code, out, err, rss_kb = spawn(argv, self.env)
        self.child_rss_kb.append(rss_kb)
        if code != 0:
            raise CheckFailed(f"exit code {code}: {err.strip()[-300:]}")
        if tracer is not None:
            with open(spans_path, encoding="utf-8") as fh:
                child = json.load(fh)
            tracer.adopt(child["spans"], child["missing"])
        try:
            payload = json.loads(out)
        except ValueError as exc:
            raise CheckFailed(f"stdout is not JSON: {exc}") from None
        if payload.get("schema_version") != 1 or payload.get("unit") != "nats":
            raise CheckFailed(f"unexpected schema_version/unit: {payload.get('schema_version')!r}/{payload.get('unit')!r}")
        value = payload.get("value")
        if not (isinstance(value, float) and math.isfinite(value)):
            raise CheckFailed(f"value {value!r} is not a finite number")
        return (value,)

    def peak_rss_kb(self):
        return max(self.child_rss_kb), len(self.child_rss_kb)

    def accuracy(self, outputs):
        return estimate_stats([(rho, out[0], analytic_mi(1, rho)) for (rho, _), out in zip(self.cycle, outputs)])


def _pmf_mi(joint):
    """Mutual information in nats of a 2-D joint pmf with no zero cells."""
    joint = joint / joint.sum()
    outer = joint.sum(axis=1, keepdims=True) * joint.sum(axis=0, keepdims=True)
    return float(np.sum(joint * np.log(joint / outer)))


class FairnessAudit(Workload):
    name = "fairness-audit-10k"
    rows = 10_000
    label_p1 = 0.4
    attr_p = (0.5, 0.3, 0.2)
    # P(prediction = 1 | label, attribute): the rate depends on both
    pred_p1 = ((0.2, 0.35, 0.5), (0.55, 0.7, 0.9))
    estimator_seeds = (0, 1, 2, 3)
    estimate_calls = 4  # demographic parity, two classes, and class 1 again for opportunity

    def __init__(self, seed, workdir, env):
        rng = np.random.default_rng(derive_seed(seed, 0))
        labels = (rng.random(self.rows) < self.label_p1).astype(int)
        attr = rng.choice(len(self.attr_p), size=self.rows, p=self.attr_p)
        pred = rng.random(self.rows) < np.asarray(self.pred_p1)[labels, attr]
        self.table = AuditTable(predictions=pred.astype(float), attribute=attr.astype(float), labels=labels)
        self.cycle = list(self.estimator_seeds)
        q = np.asarray(self.pred_p1)
        # joint[label, attribute, prediction] of the generator
        joint = (np.array([1 - self.label_p1, self.label_p1])[:, None, None]
                 * np.asarray(self.attr_p)[None, :, None]
                 * np.stack([1 - q, q], axis=-1))
        self.truth = {"dp": _pmf_mi(joint.sum(axis=0)), 0: _pmf_mi(joint[0]), 1: _pmf_mi(joint[1])}

    def run(self, index, tracer):
        report = audit(self.table, seed=self.cycle[index], positive_class=1)
        if set(report.per_class_detail) != {0, 1}:
            raise CheckFailed(f"classes {sorted(report.per_class_detail)} != [0, 1]")
        values = (report.demographic_parity_mi, report.per_class_detail[0][1], report.per_class_detail[1][1],
                  report.equality_of_opportunity_mi, report.equality_of_odds_mi)
        for name, value in zip(("dp", "class0", "class1", "opportunity", "odds"), values):
            _check_mi(name, value)
        return values

    def accuracy(self, outputs):
        records = []
        for dp, c0, c1, eop, _ in outputs:
            t = self.truth
            records += [("dp", dp, t["dp"]), ("class0", c0, t[0]), ("class1", c1, t[1]), ("opportunity", eop, t[1])]
        return estimate_stats(records)

    def check_trace(self, agg):
        calls = agg["fairness.estimate_mi"].calls if "fairness.estimate_mi" in agg else 0
        if calls != self.estimate_calls:
            raise CheckFailed(f"{calls} fairness.estimate_mi calls, expected {self.estimate_calls}")


class SmallSample(Workload):
    name = "small-sample"
    ops = 4
    trials = 10  # per cell of the N=100 protocol (3 rhos x KKLE and MINE)
    grid_trials = 2  # per cell of the N=250 dual grid (3 rhos, KKLE only)
    grid_config = EstimatorConfig(mode="dual", optimizer=OptimizerConfig(step_size=0.05, minibatch=10**6))

    def __init__(self, seed, workdir, env):
        self.cycle = [derive_seed(seed, i) for i in range(self.ops)]

    def run(self, index, tracer):
        seed = self.cycle[index]
        configs = (
            small_data_benchmark_config(trials=self.trials, seed=seed),
            BenchmarkConfig(estimators=("kkle",), sample_count=250, trials=self.grid_trials,
                            kkle_config=self.grid_config, seed=seed),
        )
        rows = []
        for cfg in configs:
            with tracer.span("benchmark.run_benchmark") if tracer else nullcontext():
                rows += run_benchmark(cfg, jobs=1).rows
        for r in rows:
            if r.failed:
                raise CheckFailed(f"{r.estimator} rho={r.rho}: row failed ({r.failures} failures)")
            if not abs(r.rmse**2 - (r.bias**2 + r.variance)) <= 1e-9:
                raise CheckFailed(f"{r.estimator} rho={r.rho}: rmse^2 != bias^2 + variance")
        return tuple((r.estimator, r.rho, r.true_mi, r.bias, r.rmse, r.variance, r.trials) for r in rows)

    def accuracy(self, outputs):
        rows = [r for out in outputs for r in out]

        def pooled_rmse(estimator):
            sel = [r for r in rows if r[0] == estimator]
            return math.sqrt(sum(r[6] * r[4] ** 2 for r in sel) / sum(r[6] for r in sel)), sum(r[6] for r in sel)

        kkle = [r for r in rows if r[0] == "kkle"]
        return {
            "rmse_nats": pooled_rmse("kkle"),
            "sd_nats": (math.sqrt(statistics.fmean(r[5] for r in kkle)), len(kkle)),
            "mine_rmse_nats": pooled_rmse("mine"),
        }


WORKLOADS = {w.name: w for w in (CliMi, FairnessAudit, SmallSample)}
