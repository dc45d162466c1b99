"""End-to-end command line checks through main(argv)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import condgof
from condgof import Dataset, OptimizerConfig, balanced_grid, gessaman_partition, resolve_model
from condgof.cli import _ESTIMATOR_FLAGS, _report_to_dict, main, read_csv_columns
from condgof.mc import run_pipeline


@pytest.fixture()
def gauss_csv(tmp_path):
    rng = np.random.Generator(np.random.Philox(321))
    n = 300
    x1 = rng.uniform(-1, 1, n)
    x2 = rng.uniform(-1, 1, n)
    y = 0.5 + 1.0 * x1 - 0.7 * x2 + rng.standard_normal(n)
    junk = rng.integers(0, 9, n)
    path = tmp_path / "gauss.csv"
    lines = ["y,x1,x2,junk"]
    for i in range(n):
        lines.append(f"{y[i]:.17g},{x1[i]:.17g},{x2[i]:.17g},{junk[i]}")
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def _exponential_csv(tmp_path, bad_rows=None) -> str:
    """300 rows of y ~ Exp(1) with two uniform covariates; bad_rows overwrites y by row."""
    rng = np.random.Generator(np.random.Philox(5))
    y = rng.exponential(1.0, 300)
    for row, value in (bad_rows or {}).items():
        y[row] = value
    path = tmp_path / "exp.csv"
    np.savetxt(path, np.column_stack([y, rng.uniform(-1, 1, (300, 2))]), fmt="%.17g",
               delimiter=",", header="y,x1,x2", comments="")
    return str(path)


def _assert_one_line(err: str) -> None:
    assert err.count("\n") == 1 and "Traceback" not in err, err


def _run_test_cmd(gauss_csv, tmp_path, *extra, name="rep.json"):
    out = tmp_path / name
    code = main(
        [
            "test",
            "--data",
            gauss_csv,
            "--y",
            "y",
            "--x",
            "x1,x2",
            "--model",
            "gaussian_linear",
            "--out",
            str(out),
            *extra,
        ]
    )
    return code, out


class TestTestCommand:
    def test_default_raw_estimator_report(self, gauss_csv, tmp_path, capsys):
        code, out = _run_test_cmd(gauss_csv, tmp_path, "--seed", "5")
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["config"]["estimator"] == "raw"
        assert doc["config"]["seed"] == 5
        assert doc["table"]["n"] == 300
        assert sum(doc["table"]["column_counts"]) == 300
        by_stat = {r["stat"]: r for r in doc["results"]}
        # raw MLE: pearson and lr carry the df bracket, wald a point df;
        # default rtp with k=2, r=1, T=2 gives J=3 cells, so base df 9
        assert by_stat["pearson"]["df_interval"] == [5, 9]
        assert by_stat["lr"]["df_interval"] == [5, 9]
        p_lo, p_hi = by_stat["pearson"]["p_interval"]
        assert 0.0 <= p_lo <= p_hi <= 1.0
        assert by_stat["wald"]["kind"] == "wald_raw_mle"
        assert by_stat["wald"]["df"] == 9  # J=3 cells, L=4 bins
        printed = capsys.readouterr().out
        assert "pearson:" in printed and "p=[" in printed

    def test_known_theta(self, gauss_csv, tmp_path):
        code, out = _run_test_cmd(
            gauss_csv,
            tmp_path,
            "--estimator",
            "known",
            "--theta",
            "0.5,1.0,-0.7,1.0",
            "--partition",
            "gessaman",
            "--stats",
            "pearson,lr,wald",
        )
        assert code == 0
        doc = json.loads(out.read_text())
        by_stat = {r["stat"]: r for r in doc["results"]}
        assert by_stat["pearson"]["df"] == 12  # J=4, L=4, no adjustment
        assert by_stat["wald"]["kind"] == "wald_null"
        assert by_stat["pearson"]["p"] == pytest.approx(by_stat["wald"]["p"], abs=1e-6)

    def test_grouped_estimator_df(self, gauss_csv, tmp_path):
        code, out = _run_test_cmd(
            gauss_csv,
            tmp_path,
            "--estimator",
            "grouped",
            "--partition",
            "gessaman",
            "--stats",
            "pearson",
        )
        assert code == 0
        doc = json.loads(out.read_text())
        (res,) = doc["results"]
        assert res["df"] == 8  # 12 - 4 estimated parameters
        assert "p" in res

    @pytest.mark.parametrize("estimator", ["known", "raw", "grouped"])
    def test_single_bin_degenerate(self, gauss_csv, tmp_path, estimator):
        theta = ["--theta", "0.5,1.0,-0.7,1.0"] if estimator == "known" else []
        code, out = _run_test_cmd(
            gauss_csv,
            tmp_path,
            "--L",
            "1",
            "--estimator",
            estimator,
            *theta,
            "--stats",
            "pearson,lr,lm,neyman,wald",
        )
        assert code == 0
        results = json.loads(out.read_text())["results"]
        assert len(results) == 5
        for res in results:
            assert res["value"] == pytest.approx(0.0, abs=1e-12)
            assert res["p"] == 1.0 and res["df"] == 0
            assert any("degenerate" in w for w in res["warnings"])

    def test_stdout_when_no_out(self, gauss_csv, capsys):
        code = main(
            [
                "test",
                "--data",
                gauss_csv,
                "--y",
                "y",
                "--x",
                "x1,x2",
                "--model",
                "gaussian_linear",
                "--stats",
                "pearson",
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["results"][0]["stat"] == "pearson"

    def test_byte_identical_reruns(self, gauss_csv, tmp_path):
        _, out1 = _run_test_cmd(gauss_csv, tmp_path, "--seed", "9", name="a.json")
        _, out2 = _run_test_cmd(gauss_csv, tmp_path, "--seed", "9", name="b.json")
        assert out1.read_bytes() == out2.read_bytes()

    def test_partition_file_round_trip(self, gauss_csv, tmp_path, capsys):
        # `partition --rule R` and `test --partition R` build the same cells
        part_doc = tmp_path / "part.json"
        for rule, origin in (("gessaman", "gessaman"), ("grid", "fixed"), ("rtp", "rtp")):
            code = main(
                [
                    "partition",
                    "--data",
                    gauss_csv,
                    "--x",
                    "x1,x2",
                    "--rule",
                    rule,
                    "--T",
                    "2",
                    "--out",
                    str(part_doc),
                ]
            )
            assert code == 0
            assert json.loads(part_doc.read_text())["partition"]["origin"] == origin
            direct_code, direct_out = _run_test_cmd(
                gauss_csv,
                tmp_path,
                "--partition",
                rule,
                "--stats",
                "pearson,lr",
                name="direct.json",
            )
            reuse_code, reuse_out = _run_test_cmd(
                gauss_csv,
                tmp_path,
                "--partition-file",
                str(part_doc),
                "--stats",
                "pearson,lr",
                name="reuse.json",
            )
            assert direct_code == 0 and reuse_code == 0
            direct = json.loads(direct_out.read_text())
            reuse = json.loads(reuse_out.read_text())
            assert direct["table"] == reuse["table"]
            assert [r["value"] for r in direct["results"]] == [
                r["value"] for r in reuse["results"]
            ]

    def test_exponential_raw_mle_solves_score_equation(self, tmp_path):
        # no closed form: run_pipeline takes the numeric MLE (mle_numeric)
        path = _exponential_csv(tmp_path)
        out = tmp_path / "exp.json"
        code = main(["test", "--data", path, "--y", "y", "--x", "x1,x2",
                     "--model", "exponential_regression", "--estimator", "raw",
                     "--stats", "pearson,wald", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        y, x = read_csv_columns(path, "y", ["x1", "x2"])
        model = resolve_model("exponential_regression", 2)
        mean_score = model.score(y, x, np.array(doc["config"]["theta"])).mean(axis=0)
        assert np.abs(mean_score).max() <= 1e-5
        assert [r["kind"] for r in doc["results"]] == ["pearson", "wald_raw_mle"]

    @pytest.mark.parametrize("flag", ["raw", "grouped"])
    def test_report_equals_shared_pipeline(self, gauss_csv, tmp_path, flag):
        stats = ["pearson", "lr", "wald"]
        code, out = _run_test_cmd(
            gauss_csv,
            tmp_path,
            "--estimator",
            flag,
            "--partition",
            "gessaman",
            "--seed",
            "3",
            "--stats",
            ",".join(stats),
        )
        assert code == 0
        doc = json.loads(out.read_text())
        y, x = read_csv_columns(gauss_csv, "y", ["x1", "x2"])
        theta, table, reports = run_pipeline(
            resolve_model("gaussian_linear", 2),
            Dataset(y=y, x=x),
            gessaman_partition(x, 2),
            balanced_grid(4),
            _ESTIMATOR_FLAGS[flag],
            stats,
            "conditional",
            None,
            OptimizerConfig(restarts=2, seed=3),
        )
        assert doc["config"]["theta"] == theta.tolist()
        assert doc["table"]["O"] == table.O.tolist()
        assert doc["results"] == [dict(_report_to_dict(reports[s]), stat=s) for s in stats]


class TestPartitionCommand:
    def test_document_shape(self, gauss_csv, tmp_path, capsys):
        out = tmp_path / "part.json"
        code = main(
            [
                "partition",
                "--data",
                gauss_csv,
                "--x",
                "x1,x2",
                "--rule",
                "rtp",
                "--T",
                "2",
                "--r",
                "2",
                "--seed",
                "3",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["config"]["rule"] == "rtp"
        assert len(doc["counts"]) == 5  # 1 + k r (T-1)
        assert sum(doc["counts"]) == 300
        bal = doc["balance"]
        assert bal["spread"] == bal["max"] - bal["min"]
        assert "J=5" in capsys.readouterr().out


class TestSimulateCommand:
    def _config(self, tmp_path, **kw):
        doc = {
            "dgp": {
                "family": "gaussian_linear",
                "true_params": [0.5, 1.0, -0.7, 1.0],
                "covariate_law": "uniform",
                "n": 200,
                "k": 2,
            },
            "model": "gaussian_linear",
            "estimator": "known",
            "theta": [0.5, 1.0, -0.7, 1.0],
            "L": 4,
            "partition": {"kind": "gessaman", "T": 2},
            "stats": ["pearson"],
            "levels": [0.05],
            "replications": 12,
            "master_seed": 77,
        }
        doc.update(kw)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_runs_and_reports(self, tmp_path, capsys):
        cfg = self._config(tmp_path)
        out = tmp_path / "sim.json"
        code = main(["simulate", "--config", cfg, "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["replications"] == 12 and doc["failed"] == 0
        (row,) = doc["results"]
        assert row["stat"] == "pearson" and 0.0 <= row["rate"] <= 1.0
        assert "rate=" in capsys.readouterr().out

    def test_byte_identical(self, tmp_path):
        cfg = self._config(tmp_path)
        out1, out2 = tmp_path / "s1.json", tmp_path / "s2.json"
        assert main(["simulate", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["simulate", "--config", cfg, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_bad_config_exit_2(self, tmp_path, capsys):
        cfg = self._config(tmp_path, estimator="bayes")
        assert main(["simulate", "--config", cfg]) == 2
        assert "usage error" in capsys.readouterr().err

    def test_missing_config_exit_2(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "nope.json")]) == 2

    def test_invalid_json_exit_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        for content in (b"{not json", b"\xff\xfe{}"):  # the second is not UTF-8
            path.write_bytes(content)
            assert main(["simulate", "--config", str(path)]) == 2
            err = capsys.readouterr().err
            assert "broken.json" in err
            _assert_one_line(err)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("model", "weibull", "unknown model family"),
            ("theta", [0.5, 1.0, 1.0], "needs 4 theta values"),
            ("dgp", {"family": "gaussian_linear", "true_params": [0.5, 1.0],
                     "covariate_law": "uniform", "n": 200, "k": 2}, "true parameters"),
            ("master_seed", -1, "master_seed must be an integer >= 0, got -1"),
            ("master_seed", 1.7, "master_seed must be an integer"),
            ("L", 2.5, "L must be an integer"),
            ("replications", "12", "replications must be an integer"),
            ("dgp", {"family": "gaussian_linear", "true_params": [0.5, 1.0, -0.7, 1.0],
                     "covariate_law": "uniform", "n": 200.5, "k": 2}, "n must be an integer"),
            ("dgp", {"family": "gaussian_linear", "true_params": [0.5, 1.0, -0.7, 1.0],
                     "covariate_law": "uniform", "n": 200, "k": True}, "k must be an integer"),
            ("dgp", {"family": "gaussian_linear", "true_params": [0, 1, "nan", 1.0],
                     "covariate_law": "uniform", "n": 200, "k": 2}, "true_params must be finite"),
            ("partition", {"kind": "gessaman", "T": 2.5}, "T must be an integer"),
            ("partition", {"kind": "rtp", "T": 2, "r": 1.5}, "r must be an integer"),
            ("theta", [0.5, 1.0, "inf", 1.0], "theta must be finite"),
            # misspelled keys: each is named, none is silently dropped
            ("level", [0.01], "config (unknown fields 'level')"),
            ("df_conventon", "unconditional", "config (unknown fields 'df_conventon')"),
            ("dgp", {"family": "gaussian_linear", "true_params": [0.5, 1.0, -0.7, 1.0],
                     "covariate_law": "uniform", "n": 200, "k": 2, "nn": 5},
             "dgp (unknown fields 'nn')"),
            ("dgp", {"family": "gaussian_linear", "true_params": [0.5, 1.0, -0.7, 1.0],
                     "covariate_law": "uniform", "k": 2}, "dgp (missing required fields 'n')"),
            ("partition", {"kind": "rtp", "T": 2, "R": 3}, "partition (unknown fields 'R')"),
            ("stats", ["pearson", "pearson"], "stats must name each statistic once"),
            ("stats", "pearson", "stats must be a list"),
            ("stats", 5, "stats must be a list"),
            ("levels", [0.05, 0.05], "levels must name each level once"),
            ("levels", 0.05, "levels must be a list"),
            ("levels", ["0.05"], "levels must be a list"),
            ("levels", [True], "levels must be a list"),
        ],
    )
    def test_config_mismatch_exit_2_before_any_replication(
        self, tmp_path, capsys, field, value, message
    ):
        cfg = self._config(tmp_path, **{field: value})
        assert main(["simulate", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert message in err
        _assert_one_line(err)


class TestExitCodes:
    def test_version(self, capsys):
        assert main(["--version"]) == 0
        assert "condgof" in capsys.readouterr().out

    def test_unknown_flag_exit_2(self, gauss_csv):
        assert main(["test", "--data", gauss_csv, "--bogus"]) == 2

    def test_unknown_stat_exit_2(self, gauss_csv, capsys):
        code = main(
            [
                "test",
                "--data",
                gauss_csv,
                "--y",
                "y",
                "--x",
                "x1,x2",
                "--model",
                "gaussian_linear",
                "--stats",
                "hotelling",
            ]
        )
        assert code == 2
        assert "hotelling" in capsys.readouterr().err

    def test_repeated_stat_exit_2(self, gauss_csv, tmp_path, capsys):
        code, out = _run_test_cmd(gauss_csv, tmp_path, "--stats", "pearson,pearson")
        assert code == 2 and not out.exists()
        err = capsys.readouterr().err
        assert "each once" in err and "pearson,pearson" in err
        _assert_one_line(err)

    def test_known_without_theta_exit_2(self, gauss_csv):
        code = main(
            [
                "test",
                "--data",
                gauss_csv,
                "--y",
                "y",
                "--x",
                "x1,x2",
                "--model",
                "gaussian_linear",
                "--estimator",
                "known",
            ]
        )
        assert code == 2

    def test_theta_wrong_arity_exit_2(self, gauss_csv, capsys):
        code = main(
            [
                "test",
                "--data",
                gauss_csv,
                "--y",
                "y",
                "--x",
                "x1,x2",
                "--model",
                "gaussian_linear",
                "--estimator",
                "known",
                "--theta",
                "1.0,2.0",
            ]
        )
        assert code == 2
        assert "4 values" in capsys.readouterr().err

    def test_missing_file_exit_3(self, tmp_path):
        code = main(
            [
                "test",
                "--data",
                str(tmp_path / "absent.csv"),
                "--y",
                "y",
                "--x",
                "x1",
                "--model",
                "gaussian_linear",
            ]
        )
        assert code == 3

    @pytest.mark.parametrize("command", ["test", "partition"])
    @pytest.mark.parametrize(
        "content, message", [("", "empty file, header row required"), ("y,x1\n\n", "no data rows")]
    )
    def test_empty_csv_exit_3(self, tmp_path, capsys, command, content, message):
        path = tmp_path / "empty.csv"
        path.write_text(content)
        argv = {
            "test": ["test", "--data", str(path), "--y", "y", "--model", "gaussian_linear"],
            "partition": ["partition", "--data", str(path)],
        }[command]
        assert main([*argv, "--x", "x1"]) == 3
        err = capsys.readouterr().err
        assert f"empty.csv: {message}" in err
        _assert_one_line(err)

    @pytest.mark.parametrize(
        "theta, message",
        [
            ("0,1,x,1", "--theta must be comma-separated numbers, got '0,1,x,1'"),
            ("0,1,1,0", "invalid --theta"),
            ("0,1,1,-1", "invalid --theta"),
        ],
    )
    def test_invalid_theta_exit_2(self, gauss_csv, tmp_path, capsys, theta, message):
        code, out = _run_test_cmd(gauss_csv, tmp_path, "--estimator", "known", f"--theta={theta}")
        assert code == 2 and not out.exists()
        err = capsys.readouterr().err
        assert message in err
        _assert_one_line(err)

    def test_missing_column_exit_3(self, gauss_csv, capsys):
        code = main(
            [
                "test",
                "--data",
                gauss_csv,
                "--y",
                "z",
                "--x",
                "x1,x2",
                "--model",
                "gaussian_linear",
            ]
        )
        assert code == 3
        assert "'z'" in capsys.readouterr().err

    def test_bad_cell_names_row_and_column_exit_3(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        for cell in ("oops", "nan", "inf", "-Infinity"):
            # blank lines are not counted: row 1 is the second data row
            path.write_text(f"y,x1\n1.0,0.5\n\n{cell},0.2\n")
            code = main(
                [
                    "test",
                    "--data",
                    str(path),
                    "--y",
                    "y",
                    "--x",
                    "x1",
                    "--model",
                    "gaussian_linear",
                ]
            )
            assert code == 3
            err = capsys.readouterr().err
            assert "row 1" in err and "'y'" in err and cell in err
            _assert_one_line(err)

    def test_ragged_row_exit_3(self, tmp_path, capsys):
        path = tmp_path / "ragged.csv"
        path.write_text("y,x1\n1.0,0.5\n2.0\n")
        code = main(
            [
                "test",
                "--data",
                str(path),
                "--y",
                "y",
                "--x",
                "x1",
                "--model",
                "gaussian_linear",
            ]
        )
        assert code == 3
        assert "row 1" in capsys.readouterr().err

    def test_computation_failure_exit_4(self, tmp_path, capsys):
        # 6 rows cannot fill a 16-cell equal-count partition
        rng = np.random.Generator(np.random.Philox(1))
        path = tmp_path / "tiny.csv"
        rows = ["y,x1,x2"] + [
            f"{rng.normal():.17g},{rng.uniform(-1, 1):.17g},{rng.uniform(-1, 1):.17g}"
            for _ in range(6)
        ]
        path.write_text("\n".join(rows) + "\n")
        code = main(
            [
                "test",
                "--data",
                str(path),
                "--y",
                "y",
                "--x",
                "x1,x2",
                "--model",
                "gaussian_linear",
                "--estimator",
                "known",
                "--theta",
                "0,0,0,1",
                "--partition",
                "gessaman",
                "--T",
                "4",
            ]
        )
        assert code == 4
        assert "computation error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text",
        [
            None,
            "{not json",
            '{"cells": [{"lower": ["abc", 0], "upper": [1, 1]}]}',
            # x1 in (0, 0.5] lies in both cells
            '{"cells": [{"lower": ["-inf", "-inf"], "upper": [0.5, "inf"]},'
            ' {"lower": [0, "-inf"], "upper": ["inf", "inf"]}]}',
            '{"cells": [{"lower": ["-inf", "-inf"], "upper": ["inf", "inf"]}], "orign": "rtp"}',
            '{"cells": [{"lower": ["-inf", "-inf"], "upper": ["inf", "inf"], "n": 1}]}',
            '{"cells": [{"lower": ["-inf", "-inf"], "upper": ["inf", "inf"]}], "seed": 1.7}',
            '{"cells": [{"lower": ["-inf", "-inf"], "upper": ["inf", "inf"]}], "T": true}',
            '{"cells": [{"lower": ["-inf", "-inf"], "upper": ["inf", "inf"]}], "r": "3"}',
            # bounds are finite numbers or exactly "inf"/"-inf", never coerced
            '{"cells": [{"lower": ["-inf", "-inf"], "upper": ["inf", true]}]}',
            '{"cells": [{"lower": ["-inf", "-inf"], "upper": ["inf", "3"]}]}',
            '{"cells": [{"lower": ["-inf", "-inf"], "upper": ["inf", " 1e400 "]}]}',
            '{"cells": [{"lower": ["-inf", "-inf"], "upper": ["inf", "Infinity"]}]}',
            # a one-dimensional partition for two covariates
            '{"cells": [{"lower": ["-inf"], "upper": ["inf"]}]}',
        ],
    )
    def test_unreadable_partition_file_exit_3(self, gauss_csv, tmp_path, capsys, text):
        path = tmp_path / "part.json"
        if text is not None:
            path.write_text(text)
        code, _ = _run_test_cmd(gauss_csv, tmp_path, "--partition-file", str(path))
        assert code == 3
        err = capsys.readouterr().err
        assert "part.json" in err
        _assert_one_line(err)

    def test_partition_file_not_covering_data_exit_3(self, gauss_csv, tmp_path, capsys):
        # the covariates are uniform on (-1, 1); this single cell holds few of them
        path = tmp_path / "small.json"
        path.write_text(json.dumps({"cells": [{"lower": [0, 0], "upper": [1, 1]}]}))
        for estimator in ("raw", "grouped"):
            code, _ = _run_test_cmd(
                gauss_csv, tmp_path, "--partition-file", str(path), "--estimator", estimator
            )
            assert code == 3
            err = capsys.readouterr().err
            assert "small.json" in err and "lies in no cell" in err
            _assert_one_line(err)

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("test", "--L", "0"),
            ("test", "--T", "1"),
            ("test", "--r", "0"),
            ("test", "--seed", "-1"),
            ("partition", "--T", "1"),
            ("partition", "--r", "0"),
            ("partition", "--seed", "-1"),
        ],
    )
    def test_bad_numeric_flag_exit_2(self, gauss_csv, capsys, command, flag, value):
        argv = {
            "test": ["test", "--data", gauss_csv, "--y", "y", "--x", "x1,x2",
                     "--model", "gaussian_linear"],
            "partition": ["partition", "--data", gauss_csv, "--x", "x1,x2", "--rule", "rtp"],
        }[command]
        assert main([*argv, flag, value]) == 2
        err = capsys.readouterr().err
        assert f"{flag} must be >=" in err
        _assert_one_line(err)

    @pytest.mark.parametrize("command", ["test", "partition"])
    def test_repeated_x_column_exit_2(self, gauss_csv, capsys, command):
        argv = {
            "test": ["test", "--data", gauss_csv, "--y", "y", "--model", "gaussian_linear"],
            "partition": ["partition", "--data", gauss_csv],
        }[command]
        assert main([*argv, "--x", "x1,x2,x1"]) == 2
        err = capsys.readouterr().err
        assert "each once" in err and "x1,x2,x1" in err
        _assert_one_line(err)

    @pytest.mark.parametrize("command", ["test", "partition"])
    def test_non_utf8_csv_exit_3(self, tmp_path, capsys, command):
        path = tmp_path / "latin.csv"
        path.write_bytes(b"y,x1,x2\n1.0,0.5,0.1\n2.0,0.2,\xff\n")
        argv = {
            "test": ["test", "--data", str(path), "--y", "y", "--model", "gaussian_linear"],
            "partition": ["partition", "--data", str(path)],
        }[command]
        assert main([*argv, "--x", "x1,x2"]) == 3
        err = capsys.readouterr().err
        assert "latin.csv: not UTF-8 text" in err
        _assert_one_line(err)

    @pytest.mark.parametrize("command", ["test", "partition"])
    def test_repeated_header_column_exit_3(self, tmp_path, capsys, command):
        path = tmp_path / "dup.csv"
        path.write_text("y,x1,x1,x2\n1.0,0.5,0.7,0.1\n2.0,0.2,0.1,0.3\n")
        argv = {
            "test": ["test", "--data", str(path), "--y", "y", "--model", "gaussian_linear"],
            "partition": ["partition", "--data", str(path)],
        }[command]
        assert main([*argv, "--x", "x1"]) == 3
        err = capsys.readouterr().err
        assert "'x1' appears more than once" in err and "dup.csv" in err
        _assert_one_line(err)
        # a repeated column that is not requested is not read
        y, x = read_csv_columns(str(path), "y", ["x2"])
        assert y.tolist() == [1.0, 2.0] and x[:, 0].tolist() == [0.1, 0.3]

    @pytest.mark.parametrize("estimator", ["known", "raw", "grouped"])
    def test_response_outside_support_exit_3(self, tmp_path, capsys, estimator):
        path = _exponential_csv(tmp_path, bad_rows={7: -0.25, 11: -3.0})
        theta = ["--theta", "0,0,0"] if estimator == "known" else []
        code = main(["test", "--data", path, "--y", "y", "--x", "x1,x2",
                     "--model", "exponential_regression", "--estimator", estimator, *theta,
                     "--partition", "gessaman"])
        assert code == 3
        err = capsys.readouterr().err
        assert "exp.csv: response at row 7 is -0.25, outside the support y >= 0.0" in err
        _assert_one_line(err)

    def test_column_shared_by_y_and_x_read_once(self, gauss_csv):
        y, x = read_csv_columns(gauss_csv, "x1", ["x1", "x2"])
        assert y.shape == (300,) and x.shape == (300, 2)
        np.testing.assert_array_equal(y, x[:, 0])

    def test_overflowed_rate_runs_without_warnings(self, tmp_path):
        # exp(1e5) overflows to inf, the right limit of the rate; nothing on stderr
        src = str(Path(condgof.__file__).resolve().parent.parent)
        path = _exponential_csv(tmp_path)
        proc = subprocess.run(
            [sys.executable, "-m", "condgof.cli", "test", "--data", path, "--y", "y",
             "--x", "x1,x2", "--model", "exponential_regression", "--estimator", "known",
             "--theta=1e5,0,0"],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        )
        assert proc.returncode == 0 and proc.stderr == ""
        assert json.loads(proc.stdout)["config"]["theta"] == [1e5, 0.0, 0.0]

    @pytest.mark.parametrize("command", ["test", "simulate", "partition"])
    def test_out_in_missing_directory_exit_2(self, gauss_csv, tmp_path, capsys, command):
        out = str(tmp_path / "missing" / "out.json")
        cfg = TestSimulateCommand()._config(tmp_path)
        argv = {
            "test": ["test", "--data", gauss_csv, "--y", "y", "--x", "x1,x2",
                     "--model", "gaussian_linear", "--stats", "pearson"],
            "simulate": ["simulate", "--config", cfg],
            "partition": ["partition", "--data", gauss_csv, "--x", "x1,x2"],
        }[command]
        assert main([*argv, "--out", out]) == 2
        err = capsys.readouterr().err
        assert "missing" in err
        _assert_one_line(err)
