"""Command-line surface: estimate-kl, estimate-mi, benchmark, fairness, generate.

Exit codes: 0 success, 1 invalid input, 2 numerical failure.  Every command is
deterministic given --seed; all randomness is derived from that one flag.
Values are reported in nats unless --bits converts the display.
"""

import argparse
import json
import sys
from dataclasses import asdict, replace

import numpy as np

from .benchmark import BenchmarkConfig, emit_report, run_benchmark
from .datasets import read_csv_dataset, resolve_columns, write_csv_dataset
from .errors import InvalidInputError, NumericalFailureError
from .estimator import EstimatorConfig, estimate_kl, estimate_mi
from .fairness import AuditTable, audit
from .mine import MINE_OPTIMIZER
from .optimize import OptimizerConfig
from .synthetic import GaussianPairSpec, sample_gaussian_pairs

SCHEMA_VERSION = 1
LN2 = float(np.log(2.0))


def _add_estimator_flags(parser):
    defaults = EstimatorConfig()
    opt = defaults.optimizer
    parser.add_argument("--mode", choices=["dual", "primal"], default=defaults.mode)
    parser.add_argument(
        "--features",
        type=int,
        default=defaults.feature_dim,
        help="number of random Fourier features (primal), or the most pivoted-Cholesky features (dual)",
    )
    parser.add_argument("--bandwidth", default="median", help="kernel length scale, or 'median'")
    # unset optimizer flags stay None, so each estimator keeps its own defaults
    parser.add_argument("--budget", type=float, help="norm budget M")
    parser.add_argument("--step", type=float, help="SGD step size")
    parser.add_argument("--max-iter", type=int)
    parser.add_argument("--gamma", type=float, help="convergence tolerance")
    parser.add_argument("--batch", type=int, help="minibatch size")
    parser.add_argument("--seed", type=int, default=opt.seed)
    parser.add_argument("--bits", action="store_true", help="display values in bits instead of nats")


def _list_of(parse):
    """argparse type for a comma-separated list whose items ``parse`` converts."""

    def parse_list(text):
        try:
            return tuple(parse(item) for item in text.split(","))
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected comma-separated {parse.__name__} values, got {text!r}") from None

    return parse_list


def _add_output_flags(parser):
    parser.add_argument("--out", default=None, help="write output to this file instead of stdout")
    parser.add_argument("--format", choices=["json", "text"], default="text")


def _estimator_config(args):
    bandwidth = None
    if args.bandwidth != "median":
        try:
            bandwidth = float(args.bandwidth)
        except ValueError:
            raise InvalidInputError(f"--bandwidth must be a number or 'median', got {args.bandwidth!r}") from None
    opt = OptimizerConfig(seed=args.seed, **_optimizer_flags(args))
    return EstimatorConfig(bandwidth=bandwidth, mode=args.mode, feature_dim=args.features, optimizer=opt)


def _optimizer_flags(args):
    """The OptimizerConfig fields the user set by flag."""
    fields = {"step": "step_size", "max_iter": "max_iter", "gamma": "gamma", "batch": "minibatch", "budget": "norm_budget"}
    return {field: getattr(args, flag) for flag, field in fields.items() if getattr(args, flag) is not None}


def _display(value, bits):
    return value / LN2 if bits else value


def _write_output(payload_text, out):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(payload_text)
    else:
        sys.stdout.write(payload_text)


def _emit_estimate(result, args, label):
    unit = "bits" if args.bits else "nats"
    value = _display(result.kl_estimate, args.bits)
    if args.format == "json":
        config = asdict(result.config)
        config.update(config.pop("optimizer"))
        payload = {
            "schema_version": SCHEMA_VERSION,
            "quantity": label,
            "value": value,
            "unit": unit,
            "converged": bool(result.converged),
            "iterations": int(result.iterations),
            "degenerate": bool(result.degenerate),
            "sample_sizes": list(result.sample_sizes),
            "bandwidth": result.bandwidth,
            "config": config,
        }
        _write_output(json.dumps(payload, indent=2) + "\n", args.out)
    else:
        lines = [
            f"{label}: {value:.9g} {unit}",
            f"converged: {result.converged}  iterations: {result.iterations}",
            f"samples: n={result.sample_sizes[0]} m={result.sample_sizes[1]}  bandwidth: {result.bandwidth:.6g}",
        ]
        _write_output("\n".join(lines) + "\n", args.out)


def cmd_estimate_kl(args):
    _, X = read_csv_dataset(args.p)
    _, Y = read_csv_dataset(args.q)
    result = estimate_kl(X, Y, _estimator_config(args))
    _emit_estimate(result, args, "kl_divergence")
    return 0


def cmd_estimate_mi(args):
    header, data = read_csv_dataset(args.data)
    x_cols = resolve_columns(header, args.x_cols.split(","), "--x-cols")
    y_cols = resolve_columns(header, args.y_cols.split(","), "--y-cols")
    result = estimate_mi(data, x_cols, y_cols, _estimator_config(args))
    _emit_estimate(result, args, "mutual_information")
    return 0


def cmd_benchmark(args):
    cfg = BenchmarkConfig(
        estimators=args.estimators,
        dims=args.dims,
        rhos=args.rhos,
        sample_count=args.n,
        trials=args.trials,
        kkle_config=_estimator_config(args),
        # MINE's network has no norm ball, so --budget changes nothing there
        mine_config=replace(MINE_OPTIMIZER, **_optimizer_flags(args)),
        seed=args.seed,
    )
    report = run_benchmark(cfg, jobs=args.jobs)
    data = emit_report(report, args.report_format)
    if args.out:
        with open(args.out, "wb") as fh:
            fh.write(data)
    else:
        sys.stdout.buffer.write(data)
    return 0


def cmd_fairness(args):
    header, data = read_csv_dataset(args.data)
    (pred_idx,) = resolve_columns(header, [args.pred_col], "--pred-col")
    (attr_idx,) = resolve_columns(header, [args.attr_col], "--attr-col")
    labels = None
    if args.label_col is not None:
        (label_idx,) = resolve_columns(header, [args.label_col], "--label-col")
        labels = data[:, label_idx]
        if np.any(labels != np.round(labels)):
            raise InvalidInputError(f"--label-col: column {header[label_idx]!r} holds non-integer labels")
        labels = labels.astype(int)
    elif args.positive_class is not None:
        raise InvalidInputError("--positive-class requires --label-col")
    table = AuditTable(predictions=data[:, pred_idx], attribute=data[:, attr_idx], labels=labels)
    report = audit(table, _estimator_config(args), seed=args.seed, positive_class=args.positive_class)
    scale = 1.0 / LN2 if args.bits else 1.0
    payload = {
        "schema_version": SCHEMA_VERSION,
        "unit": "bits" if args.bits else "nats",
        "demographic_parity_mi": report.demographic_parity_mi * scale,
        "equality_of_odds_mi": None if report.equality_of_odds_mi is None else report.equality_of_odds_mi * scale,
        "equality_of_opportunity_mi": (
            None if report.equality_of_opportunity_mi is None else report.equality_of_opportunity_mi * scale
        ),
        "per_class_detail": {
            str(cls): {"weight": weight, "mi": mi * scale} for cls, (weight, mi) in report.per_class_detail.items()
        },
        "skipped_classes": [str(c) for c in report.skipped_classes],
    }
    _write_output(json.dumps(payload, indent=2) + "\n", args.out)
    return 0


def cmd_generate(args):
    spec = GaussianPairSpec(dimension=args.dim, correlation=args.rho, sample_count=args.n, seed=args.seed)
    data = sample_gaussian_pairs(spec)
    header = [f"x{i + 1}" for i in range(args.dim)] + [f"y{i + 1}" for i in range(args.dim)]
    write_csv_dataset(args.out, header, data)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="kernelkl",
        description="Estimate KL divergence and mutual information from samples with kernel machines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_kl = sub.add_parser("estimate-kl", help="KL divergence between two CSV sample files")
    p_kl.add_argument("--p", required=True, help="CSV of samples from the first distribution")
    p_kl.add_argument("--q", required=True, help="CSV of samples from the second distribution")
    _add_estimator_flags(p_kl)
    _add_output_flags(p_kl)
    p_kl.set_defaults(func=cmd_estimate_kl)

    p_mi = sub.add_parser("estimate-mi", help="mutual information between column blocks of one CSV")
    p_mi.add_argument("--data", required=True)
    p_mi.add_argument("--x-cols", required=True, help="comma-separated column names or indices")
    p_mi.add_argument("--y-cols", required=True, help="comma-separated column names or indices")
    _add_estimator_flags(p_mi)
    _add_output_flags(p_mi)
    p_mi.set_defaults(func=cmd_estimate_mi)

    p_bench = sub.add_parser(
        "benchmark",
        help="bias/RMSE/variance grid over correlated-Gaussian tasks",
        description="--step, --max-iter, --gamma and --batch set both estimators' optimizers; an unset one "
        "keeps each estimator's default (MINE: step 0.2, no penalty).  --budget and the kernel flags "
        "(--mode, --features, --bandwidth) apply to the kernel estimator only.",
    )
    p_bench.add_argument("--estimators", type=_list_of(str.strip), default=("kkle", "mine"))
    p_bench.add_argument("--dims", type=_list_of(int), default=(1,))
    p_bench.add_argument("--rhos", type=_list_of(float), default=(0.2, 0.5, 0.9))
    p_bench.add_argument("--n", type=int, default=100_000)
    p_bench.add_argument("--trials", type=int, default=20)
    p_bench.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes (default 1).  Each worker's BLAS already uses every core, so more "
        "than one pays off only for MINE-only grids",
    )
    p_bench.add_argument("--format", dest="report_format", choices=["csv", "json", "table"], default="table")
    p_bench.add_argument("--out", default=None)
    _add_estimator_flags(p_bench)
    p_bench.set_defaults(func=cmd_benchmark)

    p_fair = sub.add_parser("fairness", help="MI-based fairness metrics from a prediction log")
    p_fair.add_argument("--data", required=True)
    p_fair.add_argument("--pred-col", required=True)
    p_fair.add_argument("--attr-col", required=True)
    p_fair.add_argument("--label-col", default=None)
    p_fair.add_argument("--positive-class", type=int, default=None)
    _add_estimator_flags(p_fair)
    p_fair.add_argument("--out", default=None)
    p_fair.set_defaults(func=cmd_fairness)

    p_gen = sub.add_parser("generate", help="write a correlated-Gaussian CSV dataset")
    p_gen.add_argument("--dim", type=int, required=True)
    p_gen.add_argument("--rho", type=float, required=True)
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=cmd_generate)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalFailureError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
