import csv
from dataclasses import asdict

import numpy as np
import pytest

import jsonschema

from kernelkl import BenchmarkConfig, InvalidInputError, emit_report, run_benchmark
from kernelkl.benchmark import (
    CSV_COLUMNS,
    small_data_benchmark_config,
)
from kernelkl.estimator import EstimatorConfig
from kernelkl.optimize import OptimizerConfig
import json
from reference import REPORT_JSON_SCHEMA


def tiny_config(**overrides):
    """A grid small enough for unit tests: N = 200, 3 trials, short optimization."""
    opt = OptimizerConfig(step_size=0.2, max_iter=50, minibatch=1_000_000)
    defaults = dict(
        estimators=("kkle",),
        dims=(1,),
        rhos=(0.5,),
        sample_count=200,
        trials=3,
        kkle_config=EstimatorConfig(mode="dual", optimizer=opt),
        mine_config=OptimizerConfig(step_size=0.2, max_iter=50, minibatch=1_000_000, penalty_weight=0.0),
        seed=0,
    )
    defaults.update(overrides)
    return BenchmarkConfig(**defaults)


class TestConfigValidation:
    def test_unknown_estimator(self):
        with pytest.raises(InvalidInputError):
            tiny_config(estimators=("nope",))

    def test_too_few_trials(self):
        with pytest.raises(InvalidInputError):
            tiny_config(trials=1)

    def test_invalid_rho(self):
        with pytest.raises(InvalidInputError):
            tiny_config(rhos=(1.0,))

    def test_invalid_dim(self):
        # refused when the config is built, so the valid dim-1 cells never run
        with pytest.raises(InvalidInputError, match="dimension must be >= 1"):
            tiny_config(dims=(1, 0))

    def test_too_few_samples(self):
        with pytest.raises(InvalidInputError, match="sample_count must be >= 4"):
            tiny_config(sample_count=3)
        tiny_config(sample_count=4)

    @pytest.mark.parametrize("jobs", [0, -2])
    def test_jobs_below_one(self, jobs):
        with pytest.raises(InvalidInputError, match="jobs must be >= 1"):
            run_benchmark(tiny_config(), jobs=jobs)


class TestRunBenchmark:
    def test_row_grid_and_metadata(self):
        report = run_benchmark(tiny_config(estimators=("kkle", "mine"), rhos=(0.2, 0.5)))
        assert len(report.rows) == 4
        keys = [(r.estimator, r.rho) for r in report.rows]
        assert keys == [("kkle", 0.2), ("kkle", 0.5), ("mine", 0.2), ("mine", 0.5)]
        for row in report.rows:
            assert row.trials == 3
            assert row.failures == 0
            assert not row.failed
            assert row.mean_runtime_seconds > 0

    def test_rmse_identity_exact(self):
        # population variance across trials makes rmse^2 = bias^2 + variance exact
        report = run_benchmark(tiny_config(estimators=("kkle", "mine")))
        for row in report.rows:
            assert row.rmse**2 == pytest.approx(row.bias**2 + row.variance, abs=1e-9)

    def test_seed_reproducibility(self):
        cfg = tiny_config()
        r1 = run_benchmark(cfg)
        r2 = run_benchmark(cfg)
        assert [row.bias for row in r1.rows] == [row.bias for row in r2.rows]
        assert [row.rmse for row in r1.rows] == [row.rmse for row in r2.rows]

    def test_different_seed_changes_estimates(self):
        r1 = run_benchmark(tiny_config(seed=0))
        r2 = run_benchmark(tiny_config(seed=1))
        assert r1.rows[0].bias != r2.rows[0].bias

    def test_small_data_preset_shape(self):
        cfg = small_data_benchmark_config(trials=2, rhos=(0.9,))
        assert cfg.sample_count == 100
        assert cfg.kkle_config.mode == "dual"
        report = run_benchmark(cfg)
        assert len(report.rows) == 2  # both estimators, one rho

    def test_worker_processes_give_the_same_rows(self):
        cfg = tiny_config(estimators=("kkle", "mine"))
        serial, pooled = ([asdict(row) for row in run_benchmark(cfg, jobs).rows] for jobs in (1, 2))
        for row in serial + pooled:
            row.pop("mean_runtime_seconds")
        assert serial == pooled


@pytest.fixture(scope="module")
def report():
    return run_benchmark(tiny_config(estimators=("kkle", "mine")))


class TestEmitReport:
    def test_csv_round_trip(self, report):
        data = emit_report(report, format="csv")
        parsed = list(csv.DictReader(data.decode("utf-8").splitlines()))
        assert len(parsed) == len(report.rows)
        for got, row in zip(parsed, report.rows):
            assert got["estimator"] == row.estimator
            assert float(got["bias"]) == pytest.approx(row.bias, rel=1e-8)
            assert float(got["rmse"]) == pytest.approx(row.rmse, rel=1e-8)
            assert float(got["variance"]) == pytest.approx(row.variance, rel=1e-8)

    def test_csv_header(self, report):
        first_line = emit_report(report, format="csv").decode().splitlines()[0]
        assert first_line == ",".join(CSV_COLUMNS)

    def test_json_validates_against_schema(self, report):
        payload = json.loads(emit_report(report, format="json"))
        jsonschema.validate(payload, REPORT_JSON_SCHEMA)
        assert payload["schema_version"] == 1
        assert len(payload["rows"]) == len(report.rows)

    def test_table_format(self, report):
        text = emit_report(report, format="table").decode()
        lines = text.splitlines()
        assert lines[0].split() == list(CSV_COLUMNS)
        assert len(lines) == 1 + len(report.rows)

    def test_emit_deterministic_bytes(self, report):
        for fmt in ("csv", "json", "table"):
            assert emit_report(report, format=fmt) == emit_report(report, format=fmt)

    def test_unknown_format(self, report):
        with pytest.raises(InvalidInputError):
            emit_report(report, format="yaml")


class TestRoundedReferenceRow:
    def test_reference_row_satisfies_identity_to_rounding(self):
        # a row reported to 6 decimals can only satisfy the identity to the
        # rounding granularity, not to 1e-9
        bias, rmse, variance = -0.009442, 0.011378, 0.000040
        assert rmse**2 == pytest.approx(bias**2 + variance, abs=5e-7)

    @pytest.mark.parametrize(
        "bias, rmse, variance",
        [
            (-0.009442, 0.011378, 0.000040),
        ],
    )
    def test_identity_residual_is_rounding_scale(self, bias, rmse, variance):
        residual = abs(rmse**2 - (bias**2 + variance))
        assert residual <= 5e-7
        assert residual > 1e-12  # genuinely nonzero: the digits are rounded
