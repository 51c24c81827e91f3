"""Repeated-trial harness reporting bias, RMSE, and variance per configuration.

Each (estimator, dimension, correlation) cell runs ``trials`` independent
seeded estimations on freshly sampled correlated-Gaussian data.  Variance is
the population variance across trials, which makes rmse^2 = bias^2 + variance
an exact identity on every emitted row.  MINE runs under an ``OptimizerConfig``
(by default ``mine.MINE_OPTIMIZER``), reseeded for each trial.
"""

import csv
import io
import json
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .errors import InvalidInputError, NumericalFailureError, require_count
from .estimator import MIN_MI_ROWS, EstimatorConfig, estimate_mi, joint_and_product
from .mine import MINE_OPTIMIZER, mine_estimate
from .optimize import OptimizerConfig
from .synthetic import GaussianPairSpec, analytic_mi, sample_gaussian_pairs

KNOWN_ESTIMATORS = ("kkle", "mine")

CSV_COLUMNS = ("estimator", "dim", "rho", "true_mi", "bias", "rmse", "variance", "mean_runtime_seconds")


@dataclass(frozen=True)
class BenchmarkConfig:
    estimators: tuple = KNOWN_ESTIMATORS
    dims: tuple = (1,)
    rhos: tuple = (0.2, 0.5, 0.9)
    sample_count: int = 100_000
    trials: int = 20
    kkle_config: EstimatorConfig = field(default_factory=EstimatorConfig)
    mine_config: OptimizerConfig = MINE_OPTIMIZER
    seed: int = 0

    def __post_init__(self):
        require_count("trials", self.trials, 2)  # for the variance to be defined
        for est in self.estimators:
            if est not in KNOWN_ESTIMATORS:
                raise InvalidInputError(f"unknown estimator {est!r}")
        for rho in self.rhos:
            if not abs(rho) < 1:
                raise InvalidInputError(f"correlation must lie in (-1, 1), got {rho}")
        for dim in self.dims:
            require_count("dimension", dim)
        require_count("sample_count", self.sample_count, MIN_MI_ROWS)  # for an MI estimate


@dataclass(frozen=True)
class BenchmarkRow:
    estimator: str
    dim: int
    rho: float
    true_mi: float
    bias: float
    rmse: float
    variance: float
    mean_runtime_seconds: float
    trials: int
    failures: int
    failed: bool


@dataclass(frozen=True)
class BenchmarkReport:
    rows: tuple
    config: BenchmarkConfig


def small_data_benchmark_config(trials=20, seed=0, rhos=(0.2, 0.5, 0.9)):
    """Full small-sample protocol: N = 100, D = 1, both estimators.

    Both estimators run full batch for 100 iterations: the kernel estimator
    on the dual path at the default step, MINE at a damped step without the
    RKHS penalty.
    """
    budget = {"max_iter": 100, "minibatch": 1_000_000}
    return BenchmarkConfig(
        estimators=KNOWN_ESTIMATORS,
        dims=(1,),
        rhos=tuple(rhos),
        sample_count=100,
        trials=trials,
        kkle_config=EstimatorConfig(mode="dual", optimizer=OptimizerConfig(**budget)),
        mine_config=replace(MINE_OPTIMIZER, **budget),
        seed=seed,
    )


def _trial_seeds(seed, cell_index, trial):
    ss = np.random.SeedSequence(entropy=(int(seed) & (2**63 - 1), int(cell_index), int(trial)))
    data_seed, est_seed = ss.generate_state(2)
    return int(data_seed), int(est_seed)


def _run_trial(task):
    estimator, dim, rho, sample_count, data_seed, est_seed, kkle_cfg, mine_cfg = task
    pairs = sample_gaussian_pairs(
        GaussianPairSpec(dimension=dim, correlation=rho, sample_count=sample_count, seed=data_seed)
    )
    x_cols = list(range(dim))
    y_cols = list(range(dim, 2 * dim))
    start = time.perf_counter()
    try:
        if estimator == "kkle":
            result = estimate_mi(pairs, x_cols, y_cols, kkle_cfg, seed=est_seed)
        else:
            joint, product = joint_and_product(pairs, x_cols, y_cols, est_seed)
            result = mine_estimate(joint, product, mine_cfg.with_seed(est_seed))
        return float(result.kl_estimate), time.perf_counter() - start, None
    except NumericalFailureError as exc:
        return float("nan"), time.perf_counter() - start, str(exc)


def run_benchmark(cfg, jobs=1):
    """Run every cell of the grid in ``jobs`` processes; deterministic given cfg.seed regardless of jobs."""
    if jobs < 1:
        raise InvalidInputError(f"jobs must be >= 1, got {jobs}")
    cells = [
        (est, dim, rho)
        for est in cfg.estimators
        for dim in cfg.dims
        for rho in cfg.rhos
    ]
    tasks = []
    for cell_index, (est, dim, rho) in enumerate(cells):
        for trial in range(cfg.trials):
            data_seed, est_seed = _trial_seeds(cfg.seed, cell_index, trial)
            tasks.append((est, dim, rho, cfg.sample_count, data_seed, est_seed, cfg.kkle_config, cfg.mine_config))

    if jobs > 1:
        # imported here, so that importing kernelkl does not load multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(_run_trial, tasks, chunksize=1))
    else:
        outcomes = [_run_trial(t) for t in tasks]

    rows = []
    for cell_index, (est, dim, rho) in enumerate(cells):
        cell = outcomes[cell_index * cfg.trials : (cell_index + 1) * cfg.trials]
        estimates = np.array([v for v, _, err in cell if err is None])
        runtimes = np.array([t for _, t, _ in cell])
        failures = sum(1 for _, _, err in cell if err is not None)
        failed = failures > 0.1 * cfg.trials or estimates.size < 2
        true_mi = float(analytic_mi(dim, rho))
        if estimates.size >= 2:
            bias = float(np.mean(estimates) - true_mi)
            rmse = float(np.sqrt(np.mean((estimates - true_mi) ** 2)))
            variance = float(np.mean((estimates - np.mean(estimates)) ** 2))
        else:
            bias = rmse = variance = float("nan")
        rows.append(
            BenchmarkRow(
                estimator=est,
                dim=dim,
                rho=float(rho),
                true_mi=true_mi,
                bias=bias,
                rmse=rmse,
                variance=variance,
                mean_runtime_seconds=float(np.mean(runtimes)),
                trials=cfg.trials,
                failures=failures,
                failed=failed,
            )
        )
    return BenchmarkReport(rows=tuple(rows), config=cfg)


def _cells(row):
    """The CSV_COLUMNS of one row as text: floats to 9 significant digits."""
    return [row.estimator, str(row.dim)] + [f"{getattr(row, c):.9g}" for c in CSV_COLUMNS[2:]]


def emit_report(report, format="csv"):
    """Serialize a report to bytes as csv, json, or an aligned text table."""
    if format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        writer.writerows(_cells(row) for row in report.rows)
        return buf.getvalue().encode("utf-8")
    if format == "json":
        payload = {"schema_version": 1, "rows": [asdict(row) for row in report.rows]}
        return (json.dumps(payload, indent=2) + "\n").encode("utf-8")
    if format == "table":
        header = list(CSV_COLUMNS)
        body = [_cells(row) for row in report.rows]
        widths = [max(len(header[i]), *(len(r[i]) for r in body)) if body else len(header[i]) for i in range(len(header))]
        lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths))]
        lines += ["  ".join(c.ljust(w) for c, w in zip(r, widths)) for r in body]
        return ("\n".join(lines) + "\n").encode("utf-8")
    raise InvalidInputError(f"unsupported report format {format!r}")

