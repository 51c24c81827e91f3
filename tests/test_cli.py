import csv
import json
import os
import re
import subprocess
import sys
from dataclasses import asdict, replace

import numpy as np
import pytest

import kernelkl
from kernelkl import (
    BenchmarkConfig,
    EstimatorConfig,
    GaussianPairSpec,
    InvalidInputError,
    run_benchmark,
    sample_gaussian_pairs,
)
from kernelkl.cli import build_parser, main
from kernelkl.datasets import read_csv_dataset, resolve_columns, write_csv_dataset
from kernelkl.mine import MINE_OPTIMIZER

FAST = ["--max-iter", "200"]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def gaussian_files(tmp_path):
    rng = np.random.default_rng(0)
    p = tmp_path / "p.csv"
    q = tmp_path / "q.csv"
    write_csv_dataset(p, ["x"], rng.normal(size=(2000, 1)))
    write_csv_dataset(q, ["x"], rng.normal(loc=1.0, size=(2000, 1)))
    return str(p), str(q)


@pytest.fixture()
def mi_file(tmp_path):
    code = main(["generate", "--dim", "1", "--rho", "0.8", "--n", "3000",
                 "--seed", "3", "--out", str(tmp_path / "pairs.csv")])
    assert code == 0
    return str(tmp_path / "pairs.csv")


class TestDatasets:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "d.csv"
        data = np.random.default_rng(1).normal(size=(10, 3))
        write_csv_dataset(path, ["a", "b", "c"], data)
        header, loaded = read_csv_dataset(path)
        assert header == ["a", "b", "c"]
        np.testing.assert_array_equal(loaded, data)

    def test_byte_determinism(self, tmp_path):
        data = np.random.default_rng(2).normal(size=(5, 2))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv_dataset(p1, ["u", "v"], data)
        write_csv_dataset(p2, ["u", "v"], data)
        assert p1.read_bytes() == p2.read_bytes()

    def test_unwritable_path_cites_name(self, tmp_path):
        path = tmp_path / "missing-dir" / "out.csv"
        with pytest.raises(InvalidInputError, match=re.escape(f"cannot write {path}")):
            write_csv_dataset(path, ["x"], np.zeros((2, 1)))

    def test_missing_file_cites_name(self, tmp_path):
        with pytest.raises(InvalidInputError, match="nonexistent.csv"):
            read_csv_dataset(str(tmp_path / "nonexistent.csv"))

    def test_malformed_cell_cites_row_and_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1.0,2.0\n3.0,oops\n")
        with pytest.raises(InvalidInputError, match=r"row 3.*'b'.*'oops'"):
            read_csv_dataset(str(path))

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("a,b\n1.0\n")
        with pytest.raises(InvalidInputError, match="row 2"):
            read_csv_dataset(str(path))

    @pytest.mark.parametrize("cell", ["0.1", "-0.0", "1e-310", " 2.5 ", "1_000", ".5", "5.", "1E5",
                                      "0.30000000000000004", "123456789012345678901234567890",
                                      "\t-3.25\t", "+7", "1e-400", '"1.5"', '" 2.5e3 "'])
    def test_cell_parses_as_float(self, tmp_path, cell):
        # the float() of the cell as the csv module unquotes it
        path = tmp_path / "cells.csv"
        path.write_text(f"a,b\n{cell},1\n1,{cell}\n")
        _, data = read_csv_dataset(str(path))
        value = next(csv.reader([cell]))[0]
        expected = np.array([[float(value), 1.0], [1.0, float(value)]])
        assert data.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("body, message", [
        ("1,2\n#3,4\n", r"row 3, column 'a': cannot parse '#3'"),
        ("1,2\n3,4 # note\n", r"row 3, column 'b': cannot parse '4 # note'"),
        ("1,2\n\n3,4\n", r"row 3 has 0 cells, expected 2"),
        ("1,2\n3,4\n\n", r"row 4 has 0 cells, expected 2"),
        ("1,2,3\n4,5,6\n", r"row 2 has 3 cells, expected 2"),
        ("1,2\n3,nan\n", r"row 3, column 'b': non-finite value"),
    ])
    def test_comment_blank_and_wide_rows_cite_the_row(self, tmp_path, body, message):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n" + body)
        with pytest.raises(InvalidInputError, match=message):
            read_csv_dataset(str(path))

    @pytest.mark.parametrize("text, message", [("", "empty file"), ("\n1,2\n", "empty header row")])
    def test_empty_file_or_header_refused(self, tmp_path, text, message):
        path = tmp_path / "empty.csv"
        path.write_text(text)
        with pytest.raises(InvalidInputError, match=message):
            read_csv_dataset(str(path))

    @pytest.mark.parametrize("text", ["a,b\n", "a,b", "a\n"])
    def test_header_only_file_has_no_rows(self, tmp_path, text):
        path = tmp_path / "header.csv"
        path.write_text(text)
        header, data = read_csv_dataset(str(path))
        assert data.shape == (0, len(header)) and data.dtype == np.float64

    def test_crlf_lines_and_unquoted_header(self, tmp_path):
        path = tmp_path / "crlf.csv"
        path.write_bytes(b'"x 1",y\r\n0.5,-1e3\r\n2,3')
        header, data = read_csv_dataset(str(path))
        assert header == ["x 1", "y"]
        assert data.tolist() == [[0.5, -1000.0], [2.0, 3.0]]

    def test_non_finite_cell_cites_row_and_column(self, tmp_path):
        path = tmp_path / "inf.csv"
        path.write_text("a,b\n1.0,2.0\n3.0,4.0\ninf,5.0\n")
        with pytest.raises(InvalidInputError, match=r"row 4.*'a'.*non-finite"):
            read_csv_dataset(str(path))

    def test_resolve_by_name_and_index(self):
        assert resolve_columns(["x", "y", "z"], ["y", "0"], "--x-cols") == [1, 0]

    def test_resolve_unknown_name(self):
        with pytest.raises(InvalidInputError, match="--x-cols"):
            resolve_columns(["x", "y"], ["w"], "--x-cols")

    def test_resolve_index_out_of_range(self):
        with pytest.raises(InvalidInputError, match="--y-cols: column index 2 out of range"):
            resolve_columns(["x", "y"], ["2"], "--y-cols")


class TestGenerate:
    def test_deterministic_bytes(self, tmp_path, capsys):
        args = ["generate", "--dim", "2", "--rho", "0.5", "--n", "50", "--seed", "7"]
        c1, _, _ = run_cli(capsys, *args, "--out", str(tmp_path / "a.csv"))
        c2, _, _ = run_cli(capsys, *args, "--out", str(tmp_path / "b.csv"))
        assert c1 == c2 == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_header_names(self, tmp_path, capsys):
        code, _, _ = run_cli(capsys, "generate", "--dim", "2", "--rho", "0.3",
                             "--n", "10", "--out", str(tmp_path / "g.csv"))
        assert code == 0
        header, data = read_csv_dataset(str(tmp_path / "g.csv"))
        assert header == ["x1", "x2", "y1", "y2"]
        assert data.shape == (10, 4)

    def test_invalid_rho_exit_one(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "generate", "--dim", "1", "--rho", "1.0",
                               "--n", "10", "--out", str(tmp_path / "g.csv"))
        assert code == 1
        assert "error:" in err


class TestEstimateKl:
    def test_text_output(self, gaussian_files, capsys):
        p, q = gaussian_files
        code, out, _ = run_cli(capsys, "estimate-kl", "--p", p, "--q", q, *FAST)
        assert code == 0
        assert out.startswith("kl_divergence:")
        assert "nats" in out

    def test_json_output_and_value(self, gaussian_files, capsys):
        p, q = gaussian_files
        code, out, _ = run_cli(capsys, "estimate-kl", "--p", p, "--q", q,
                               "--format", "json", "--seed", "1", *FAST)
        assert code == 0
        payload = json.loads(out)
        assert payload["schema_version"] == 1
        assert payload["unit"] == "nats"
        # KL(N(0,1) || N(1,1)) = 0.5
        assert payload["value"] == pytest.approx(0.5, abs=0.15)

    def test_bits_conversion(self, gaussian_files, capsys):
        p, q = gaussian_files
        _, out_nats, _ = run_cli(capsys, "estimate-kl", "--p", p, "--q", q,
                                 "--format", "json", "--seed", "1", *FAST)
        _, out_bits, _ = run_cli(capsys, "estimate-kl", "--p", p, "--q", q,
                                 "--format", "json", "--seed", "1", "--bits", *FAST)
        nats = json.loads(out_nats)["value"]
        bits = json.loads(out_bits)["value"]
        assert bits == pytest.approx(nats / np.log(2.0))
        assert json.loads(out_bits)["unit"] == "bits"

    def test_seed_determinism_byte_identical(self, gaussian_files, capsys):
        p, q = gaussian_files
        _, out1, _ = run_cli(capsys, "estimate-kl", "--p", p, "--q", q,
                             "--format", "json", "--seed", "5", *FAST)
        _, out2, _ = run_cli(capsys, "estimate-kl", "--p", p, "--q", q,
                             "--format", "json", "--seed", "5", *FAST)
        assert out1 == out2

    def test_out_file(self, gaussian_files, tmp_path, capsys):
        p, q = gaussian_files
        dest = tmp_path / "result.json"
        code, out, _ = run_cli(capsys, "estimate-kl", "--p", p, "--q", q,
                               "--format", "json", "--out", str(dest), *FAST)
        assert code == 0
        assert out == ""
        assert json.loads(dest.read_text())["quantity"] == "kl_divergence"

    def test_missing_file_exit_one(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "estimate-kl", "--p", str(tmp_path / "no.csv"),
                               "--q", str(tmp_path / "no.csv"))
        assert code == 1
        assert "no.csv" in err

    def test_dual_mode_accepted(self, tmp_path, capsys):
        rng = np.random.default_rng(4)
        p = tmp_path / "p.csv"
        q = tmp_path / "q.csv"
        write_csv_dataset(p, ["x"], rng.normal(size=(80, 1)))
        write_csv_dataset(q, ["x"], rng.normal(size=(80, 1)))
        code, out, _ = run_cli(capsys, "estimate-kl", "--p", str(p), "--q", str(q),
                               "--mode", "dual", "--step", "0.1", "--max-iter", "100")
        assert code == 0

    def test_explicit_bandwidth(self, gaussian_files, capsys):
        p, q = gaussian_files
        code, out, _ = run_cli(capsys, "estimate-kl", "--p", p, "--q", q,
                               "--bandwidth", "2.0", "--format", "json", *FAST)
        assert code == 0
        assert json.loads(out)["bandwidth"] == 2.0

    def test_bad_bandwidth_exit_one(self, gaussian_files, capsys):
        p, q = gaussian_files
        code, _, err = run_cli(capsys, "estimate-kl", "--p", p, "--q", q, "--bandwidth", "wide")
        assert code == 1
        assert "bandwidth" in err

    @pytest.mark.parametrize("mode", ["primal", "dual"])
    def test_overflowing_step_exit_two_without_numpy_warnings(self, tmp_path, mode):
        rng = np.random.default_rng(0)
        p, q = tmp_path / "p.csv", tmp_path / "q.csv"
        write_csv_dataset(p, ["x"], rng.normal(size=(400, 1)))
        write_csv_dataset(q, ["x"], rng.normal(loc=1.0, size=(300, 1)))
        # a fresh interpreter, so stderr shows any numpy warning as a user sees it
        src = os.path.dirname(os.path.dirname(os.path.abspath(kernelkl.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(s for s in (src, os.environ.get("PYTHONPATH")) if s))
        proc = subprocess.run(
            [sys.executable, "-m", "kernelkl", "estimate-kl", "--p", str(p), "--q", str(q),
             "--step", "1e308", "--max-iter", "5", "--mode", mode],
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == (
            "numerical failure: the weight norm is not finite after a gradient step; step_size is too large\n"
        )


class TestEstimateMi:
    def test_by_name_and_by_index_agree(self, mi_file, capsys):
        base = ["estimate-mi", "--data", mi_file, "--format", "json", "--seed", "2", *FAST]
        _, by_name, _ = run_cli(capsys, *base, "--x-cols", "x1", "--y-cols", "y1")
        _, by_index, _ = run_cli(capsys, *base, "--x-cols", "0", "--y-cols", "1")
        assert json.loads(by_name)["value"] == json.loads(by_index)["value"]

    def test_value_near_analytic(self, mi_file, capsys):
        code, out, _ = run_cli(capsys, "estimate-mi", "--data", mi_file,
                               "--x-cols", "x1", "--y-cols", "y1",
                               "--format", "json", "--seed", "2", *FAST)
        assert code == 0
        # I = -0.5 log(1 - 0.64) = 0.5108
        assert json.loads(out)["value"] == pytest.approx(0.5108, abs=0.1)

    def test_overlapping_columns_exit_one(self, mi_file, capsys):
        code, _, err = run_cli(capsys, "estimate-mi", "--data", mi_file,
                               "--x-cols", "x1", "--y-cols", "x1")
        assert code == 1
        assert "overlap" in err

    def test_unknown_column_exit_one(self, mi_file, capsys):
        code, _, err = run_cli(capsys, "estimate-mi", "--data", mi_file,
                               "--x-cols", "nope", "--y-cols", "y1")
        assert code == 1
        assert "nope" in err

    def test_default_flags_match_library_defaults(self, tmp_path, capsys):
        path = tmp_path / "pairs.csv"
        write_csv_dataset(path, ["x", "y"], np.random.default_rng(5).normal(size=(50, 2)))
        code, out, _ = run_cli(capsys, "estimate-mi", "--data", str(path),
                               "--x-cols", "x", "--y-cols", "y", "--format", "json")
        assert code == 0
        defaults = EstimatorConfig()
        opt = defaults.optimizer
        # a list of pairs pins the key order as well as the values
        assert list(json.loads(out)["config"].items()) == [
            ("mode", defaults.mode),
            ("feature_dim", defaults.feature_dim),
            ("bandwidth", defaults.bandwidth),
            ("step_size", opt.step_size),
            ("max_iter", opt.max_iter),
            ("gamma", opt.gamma),
            ("minibatch", opt.minibatch),
            ("norm_budget", opt.norm_budget),
            ("penalty_weight", opt.penalty_weight),
            ("seed", opt.seed),
        ]

    @pytest.mark.parametrize("flag", ["--step", "--budget", "--gamma", "--bandwidth"])
    def test_non_finite_optimizer_flag_exit_one(self, mi_file, capsys, flag):
        code, out, err = run_cli(capsys, "estimate-mi", "--data", mi_file,
                                 "--x-cols", "x1", "--y-cols", "y1", flag, "nan")
        assert code == 1
        assert out == ""
        assert "finite and positive" in err

    def test_100k_rows_peak_rss_without_a_q_feature_matrix(self, tmp_path):
        # the 100k x ~180 float32 Q kernel rows (72 MB) are made per minibatch;
        # os.wait4 reads this child's own peak RSS, in KiB on Linux
        path = tmp_path / "pairs.csv"
        spec = GaussianPairSpec(dimension=1, correlation=0.9, sample_count=100_000, seed=4)
        write_csv_dataset(path, ["x1", "y1"], sample_gaussian_pairs(spec))
        src = os.path.dirname(os.path.dirname(os.path.abspath(kernelkl.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(s for s in (src, os.environ.get("PYTHONPATH")) if s))
        proc = subprocess.Popen(
            [sys.executable, "-m", "kernelkl", "estimate-mi", "--data", str(path),
             "--x-cols", "x1", "--y-cols", "y1", "--format", "json"],
            env=env, stdout=subprocess.PIPE,
        )
        with proc.stdout:
            out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        assert proc.returncode == 0
        assert np.isfinite(json.loads(out)["value"])
        assert usage.ru_maxrss < 150 * 1024

    @pytest.fixture
    def pairs_5001(self, tmp_path):
        # 5001 joint rows plus 5001 permuted rows pool to 10002 > MAX_GRAM_ROWS
        path = tmp_path / "pairs.csv"
        write_csv_dataset(path, ["x", "y"], np.random.default_rng(6).normal(size=(5_001, 2)))
        return str(path)

    def test_dual_beyond_gram_limit_runs(self, pairs_5001, capsys):
        # the factor holds 10002 x (rank <= 512) entries, not a Gram matrix
        code, out, _ = run_cli(capsys, "estimate-mi", "--data", pairs_5001,
                               "--x-cols", "x", "--y-cols", "y", "--mode", "dual", "--format", "json")
        assert code == 0
        assert np.isfinite(json.loads(out)["value"])

    def test_dual_factor_beyond_limit_exit_one(self, pairs_5001, capsys):
        # up to 10002 features over 10002 pooled rows: above MAX_GRAM_ROWS**2 entries
        code, out, err = run_cli(capsys, "estimate-mi", "--data", pairs_5001,
                                 "--x-cols", "x", "--y-cols", "y", "--mode", "dual", "--features", "20000")
        assert code == 1
        assert out == ""
        assert "10002 pooled samples" in err and "--mode primal" in err and "--features" in err

    def test_dual_default_step_reports_nonnegative_mi(self, tmp_path, capsys):
        # at the default step the old Gram-coefficient loop diverged here and
        # reported about -3 nats as converged; the truth is 0.223
        path = tmp_path / "pairs.csv"
        spec = GaussianPairSpec(dimension=1, correlation=0.6, sample_count=300, seed=2)
        write_csv_dataset(path, ["x1", "y1"], sample_gaussian_pairs(spec))
        code, out, _ = run_cli(capsys, "estimate-mi", "--data", str(path),
                               "--x-cols", "x1", "--y-cols", "y1", "--mode", "dual", "--format", "json")
        assert code == 0
        assert json.loads(out)["value"] >= 0

    def test_identical_rows_report_a_degenerate_zero(self, tmp_path, capsys):
        path = tmp_path / "pairs.csv"
        write_csv_dataset(path, ["x", "y"], np.tile([1.5, -2.0], (20, 1)))
        code, out, _ = run_cli(capsys, "estimate-mi", "--data", str(path),
                               "--x-cols", "x", "--y-cols", "y", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert (payload["value"], payload["degenerate"], payload["bandwidth"]) == (0.0, True, 1.0)
        assert (payload["iterations"], payload["converged"]) == (0, True)


class TestBenchmarkCommand:
    ARGS = ["benchmark", "--estimators", "kkle", "--dims", "1", "--rhos", "0.5",
            "--n", "200", "--trials", "2", "--jobs", "1",
            "--mode", "dual", "--step", "0.2", "--max-iter", "30", "--batch", "1000000"]

    def test_csv_to_file(self, tmp_path, capsys):
        dest = tmp_path / "report.csv"
        code, _, _ = run_cli(capsys, *self.ARGS, "--format", "csv", "--out", str(dest))
        assert code == 0
        lines = dest.read_text().splitlines()
        assert lines[0].startswith("estimator,dim,rho,true_mi,bias,rmse,variance")
        assert len(lines) == 2

    def test_seed_determinism_of_statistics(self, tmp_path, capsys):
        # everything except the wall-clock runtime column (the last) must repeat exactly
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(capsys, *self.ARGS, "--format", "csv", "--seed", "3", "--out", str(a))
        run_cli(capsys, *self.ARGS, "--format", "csv", "--seed", "3", "--out", str(b))
        rows_a, rows_b = ([row[:-1] for row in csv.reader(path.read_text().splitlines())] for path in (a, b))
        assert rows_a == rows_b and len(rows_a) == 2

    def test_table_to_stdout(self, capsys):
        code = main(self.ARGS + ["--format", "table"])
        assert code == 0

    MINE = ["benchmark", "--estimators", "mine", "--dims", "1", "--rhos", "0.5",
            "--n", "100", "--trials", "2", "--jobs", "1", "--format", "json"]

    def mine_row(self, capsys, *flags):
        code, out, _ = run_cli(capsys, *self.MINE, *flags)
        assert code == 0
        (row,) = json.loads(out)["rows"]
        return row

    @staticmethod
    def library_mine_row(**optimizer):
        mine = replace(MINE_OPTIMIZER, **optimizer)
        cfg = BenchmarkConfig(estimators=("mine",), rhos=(0.5,), sample_count=100, trials=2, mine_config=mine)
        return asdict(run_benchmark(cfg).rows[0])

    def test_mine_rows_take_the_optimizer_flags(self, capsys):
        row = self.mine_row(capsys, "--max-iter", "30", "--batch", "64", "--step", "0.1", "--gamma", "1e-3")
        expected = self.library_mine_row(max_iter=30, minibatch=64, step_size=0.1, gamma=1e-3)
        for row_ in (row, expected):
            row_.pop("mean_runtime_seconds")
        assert row == expected

    def test_mine_rows_keep_mine_defaults_when_no_flag_is_set(self, capsys):
        row, expected = self.mine_row(capsys), self.library_mine_row()
        for row_ in (row, expected):
            row_.pop("mean_runtime_seconds")
        assert row == expected

    def test_mine_rows_fail_at_an_overflowing_step(self, capsys):
        # the step used to reach only the kernel rows: MINE reported an ordinary row
        row = self.mine_row(capsys, "--step", "1e308", "--max-iter", "5")
        assert row["failures"] == 2 and row["failed"]

    def test_jobs_defaults_to_one_process(self):
        # pool workers each run multi-threaded BLAS, which oversubscribes the cores
        assert build_parser().parse_args(["benchmark"]).jobs == 1

    def test_unknown_estimator_exit_one(self, capsys):
        code, _, err = run_cli(capsys, "benchmark", "--estimators", "magic",
                               "--rhos", "0.5", "--n", "100", "--trials", "2")
        assert code == 1
        assert "magic" in err


class TestFairnessCommand:
    @pytest.fixture()
    def audit_file(self, tmp_path):
        rng = np.random.default_rng(6)
        n = 1500
        pred = rng.normal(size=n)
        attr = rng.integers(0, 2, size=n).astype(float)
        label = rng.integers(0, 2, size=n).astype(float)
        path = tmp_path / "audit.csv"
        write_csv_dataset(path, ["pred", "attr", "label"], np.column_stack([pred, attr, label]))
        return str(path)

    def test_parity_only(self, audit_file, capsys):
        code, out, _ = run_cli(capsys, "fairness", "--data", audit_file,
                               "--pred-col", "pred", "--attr-col", "attr", *FAST)
        assert code == 0
        payload = json.loads(out)
        assert payload["schema_version"] == 1
        assert payload["demographic_parity_mi"] <= 0.05
        assert payload["equality_of_odds_mi"] is None

    def test_full_audit(self, audit_file, capsys):
        code, out, _ = run_cli(capsys, "fairness", "--data", audit_file,
                               "--pred-col", "pred", "--attr-col", "attr",
                               "--label-col", "label", "--positive-class", "1", *FAST)
        assert code == 0
        payload = json.loads(out)
        assert payload["equality_of_odds_mi"] is not None
        assert payload["equality_of_opportunity_mi"] is not None
        assert set(payload["per_class_detail"]) == {"0", "1"}

    def test_positive_class_without_labels_exit_one(self, audit_file, capsys):
        code, _, err = run_cli(capsys, "fairness", "--data", audit_file,
                               "--pred-col", "pred", "--attr-col", "attr",
                               "--positive-class", "1")
        assert code == 1
        assert "--label-col" in err

    def test_non_integer_labels_exit_one(self, tmp_path, capsys):
        rng = np.random.default_rng(7)
        n = 200
        label = np.where(rng.random(n) < 0.5, 0.5, 1.7)
        path = tmp_path / "frac.csv"
        write_csv_dataset(path, ["pred", "attr", "label"],
                          np.column_stack([rng.normal(size=n), rng.integers(0, 2, size=n), label]))
        code, _, err = run_cli(capsys, "fairness", "--data", str(path), "--pred-col", "pred",
                               "--attr-col", "attr", "--label-col", "label", *FAST)
        assert code == 1
        assert "'label'" in err and "non-integer" in err

    def test_labels_beyond_int64_exit_one(self, tmp_path, capsys):
        rng = np.random.default_rng(7)
        n = 200
        label = np.where(rng.random(n) < 0.5, 0.0, 1e20)
        path = tmp_path / "huge.csv"
        write_csv_dataset(path, ["pred", "attr", "label"],
                          np.column_stack([rng.normal(size=n), rng.integers(0, 2, size=n), label]))
        code, out, err = run_cli(capsys, "fairness", "--data", str(path), "--pred-col", "pred",
                                 "--attr-col", "attr", "--label-col", "label", *FAST)
        assert code == 1 and out == ""
        assert err.startswith("error: --label-col: ") and err.count("\n") == 1
        assert "'label'" in err and "int64" in err

    def test_imbalanced_binary_log(self, tmp_path, capsys):
        # 10% positive labels, a 20% minority group and 0/1 predictions: most
        # pooled rows tie, and the audit still runs on the columns as given
        rng = np.random.default_rng(17)
        n = 2000
        y = (rng.random(n) < 0.1).astype(float)
        group = (rng.random(n) < 0.2).astype(float)
        pred = (rng.random(n) < np.where(y == 1, 0.7, 0.1) * np.where(group == 1, 1.2, 1.0)).astype(float)
        path = tmp_path / "imbalanced.csv"
        write_csv_dataset(path, ["pred", "group", "y"], np.column_stack([pred, group, y]))
        code, out, err = run_cli(capsys, "fairness", "--data", str(path), "--pred-col", "pred",
                                 "--attr-col", "group", "--label-col", "y", "--positive-class", "1", *FAST)
        assert code == 0, err
        payload = json.loads(out)
        metrics = [payload["demographic_parity_mi"], payload["equality_of_odds_mi"],
                   payload["equality_of_opportunity_mi"]]
        metrics += [detail["mi"] for detail in payload["per_class_detail"].values()]
        assert set(payload["per_class_detail"]) == {"0", "1"}
        assert all(np.isfinite(v) and v >= 0.0 for v in metrics)

    def test_determinism(self, audit_file, capsys):
        args = ["fairness", "--data", audit_file, "--pred-col", "pred",
                "--attr-col", "attr", "--seed", "8", *FAST]
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2


class TestArgumentErrors:
    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1

    @pytest.mark.parametrize("argv", [
        ["benchmark", "--dims", "1,x"],
        ["benchmark", "--rhos", "0.5,zz"],
        ["fairness", "--data", "audit.csv", "--pred-col", "p", "--attr-col", "a", "--positive-class", "abc"],
    ])
    def test_malformed_flag_value_exit_one(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("usage:")
        assert f"argument {argv[-2]}:" in err and argv[-1] in err

    def test_missing_required_flag(self, capsys):
        assert main(["estimate-kl", "--p", "only_one_side.csv"]) == 1

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0


MI_ARGS = ["estimate-mi", "--data", "{data}", "--x-cols", "x1", "--y-cols", "y1"]


class TestBadInputExitsOne:
    """Bad input exits 1 with one ``error:`` line on stderr and nothing on stdout."""

    @pytest.mark.parametrize("argv", [
        # float32 kernel rows: the exponent's rounding bound is past 1
        pytest.param([*MI_ARGS, "--bandwidth", bw], id=f"primal-bandwidth-{bw}") for bw in ("1e-4", "1e-6", "1e-150")
    ] + [
        # sigma^2 overflows or underflows
        pytest.param([*MI_ARGS, "--bandwidth", bw, "--mode", mode], id=f"{mode}-bandwidth-{bw}")
        for bw in ("1e200", "1e-300") for mode in ("primal", "dual")
    ] + [
        pytest.param([*MI_ARGS, *FAST, "--out", "{missing}"], id="estimate-mi-out"),
        pytest.param(["estimate-kl", "--p", "{data}", "--q", "{data}", *FAST, "--out", "{missing}"], id="estimate-kl-out"),
        pytest.param(["fairness", "--data", "{data}", "--pred-col", "x1", "--attr-col", "y1", *FAST,
                      "--out", "{missing}"], id="fairness-out"),
        pytest.param(["benchmark", "--estimators", "kkle", "--n", "50", "--trials", "2", "--rhos", "0.5", *FAST,
                      "--out", "{missing}"], id="benchmark-out"),
        pytest.param(["generate", "--dim", "1", "--rho", "0.5", "--n", "5", "--out", "{missing}"], id="generate-out"),
    ] + [
        # bad grids are refused before any cell runs
        pytest.param(["benchmark", "--estimators", "kkle", "--n", "50", "--trials", "2", "--rhos", "0.5", *FAST, *flags],
                     id="benchmark" + "".join(flags))
        for flags in (["--dims", "1,0"], ["--n", "3"], ["--jobs", "0"], ["--jobs", "-2"])
    ] + [
        pytest.param(["generate", "--dim", "1", "--rho", "0.5", "--n", "5", "--seed", "-1", "--out", "{out}"],
                     id="generate-negative-seed"),
    ])
    def test_error_line_and_exit_one(self, tmp_path, capsys, argv):
        data = tmp_path / "pairs.csv"
        assert main(["generate", "--dim", "1", "--rho", "0.5", "--n", "50", "--out", str(data)]) == 0
        paths = {"data": data, "missing": tmp_path / "missing" / "out", "out": tmp_path / "out.csv"}
        code, out, err = run_cli(capsys, *(arg.format(**paths) for arg in argv))
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_unwritable_out_is_refused_before_the_run(self, tmp_path, capsys, monkeypatch):
        def run_benchmark(*args, **kwargs):
            raise AssertionError("the grid ran before --out was checked")

        monkeypatch.setattr(kernelkl.cli, "run_benchmark", run_benchmark)
        dest = tmp_path / "missing" / "r.csv"
        code, _, err = run_cli(capsys, "benchmark", "--n", "50", "--trials", "2", "--out", str(dest))
        assert code == 1 and err.startswith(f"error: cannot write {dest}: ")

    def test_checking_out_keeps_an_existing_file(self, tmp_path, capsys):
        data, dest = tmp_path / "pairs.csv", tmp_path / "out.json"
        assert main(["generate", "--dim", "1", "--rho", "0.5", "--n", "50", "--out", str(data)]) == 0
        dest.write_bytes(b"earlier output\n")
        code, _, err = run_cli(capsys, "estimate-mi", "--data", str(data), "--x-cols", "nope", "--y-cols", "y1",
                               "--out", str(dest))
        assert code == 1 and "nope" in err
        assert dest.read_bytes() == b"earlier output\n"
