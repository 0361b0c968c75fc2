"""End-to-end tests for the command-line interface.

A few cases run the real console entry through a subprocess; the rest
call main() in-process for speed and to reach the failure mappings.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from artifact import cli
from artifact.analytic import symmetric_regret_at_uniform
from artifact.errors import IterationLimit


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "artifact.cli", *map(str, args)],
        capture_output=True,
        text=True,
    )


class TestSolve:
    def test_writes_csv_bundle(self, tmp_path):
        proc = run_cli(
            "solve",
            "--theta-minus", 0.7, "--theta-plus", 0.7,
            "--gamma", 0.9, "--grid", 401, "--out", tmp_path,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("solve:")
        for name in ("value.csv", "regret.csv", "policy.csv", "summary.json"):
            assert (tmp_path / name).exists()
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["theta_plus"] == 0.7
        assert summary["gamma"] == 0.9
        assert summary["grid_points"] == 401
        assert summary["iterations"] >= 1
        assert summary["max_regret"] > 0.0
        assert "boundary" in summary
        assert "error_bound" in summary

    def test_json_format_writes_single_doc(self, tmp_path):
        rc = cli.main(
            [
                "solve",
                "--theta-minus", "0.7", "--theta-plus", "0.7",
                "--gamma", "0.9", "--grid", "201",
                "--out", str(tmp_path), "--format", "json",
            ]
        )
        assert rc == 0
        assert not (tmp_path / "value.csv").exists()
        doc = json.loads((tmp_path / "solution.json").read_text())
        assert len(doc["value"]["beta"]) == 201
        assert len(doc["regret"]["values"]) == 201
        assert len(doc["policy"]["q"]) == 201

    def test_invalid_theta_exits_2(self, tmp_path):
        proc = run_cli(
            "solve",
            "--theta-minus", 1.5, "--theta-plus", 0.7,
            "--gamma", 0.9, "--out", tmp_path,
        )
        assert proc.returncode == 2
        assert "error:" in proc.stderr

    def test_invalid_gamma_exits_2(self, tmp_path, capsys):
        rc = cli.main(
            [
                "solve",
                "--theta-minus", "0.7", "--theta-plus", "0.7",
                "--gamma", "1.0", "--out", str(tmp_path),
            ]
        )
        assert rc == 2

    def test_even_grid_exits_2(self, tmp_path, capsys):
        rc = cli.main(
            [
                "solve",
                "--theta-minus", "0.7", "--theta-plus", "0.7",
                "--gamma", "0.9", "--grid", "200", "--out", str(tmp_path),
            ]
        )
        assert rc == 2

    def test_nonpositive_tol_exits_2(self, tmp_path, capsys):
        rc = cli.main(
            [
                "solve",
                "--theta-minus", "0.7", "--theta-plus", "0.7",
                "--gamma", "0.9", "--tol=-1e-6", "--out", str(tmp_path),
            ]
        )
        assert rc == 2

    def test_nonconvergence_exits_3(self, tmp_path, monkeypatch, capsys):
        def boom(*args, **kwargs):
            raise IterationLimit("sweep budget exhausted", 10, 1.0)

        monkeypatch.setattr(cli, "policy_iteration", boom)
        rc = cli.main(
            [
                "solve",
                "--theta-minus", "0.7", "--theta-plus", "0.7",
                "--gamma", "0.9", "--grid", "201", "--out", str(tmp_path),
            ]
        )
        assert rc == 3
        assert "error:" in capsys.readouterr().err

    def test_long_horizon_matches_closed_form(self, tmp_path, capsys):
        rc = cli.main(
            [
                "solve",
                "--theta-minus", "0.7", "--theta-plus", "0.7",
                "--gamma", "0.9999", "--grid", "401", "--out", str(tmp_path),
            ]
        )
        assert rc == 0
        assert "certified error" in capsys.readouterr().out
        summary = json.loads((tmp_path / "summary.json").read_text())
        want = symmetric_regret_at_uniform(0.7, 0.9999)
        h = 2.0 / (401 - 1)
        assert abs(summary["max_regret"] - want) <= 2.0 * h * want
        assert 0.0 <= summary["error_bound"] <= summary["tolerance"]

    def test_tol_below_certificate_exits_3(self, tmp_path, capsys):
        rc = cli.main(
            [
                "solve",
                "--theta-minus", "0.7", "--theta-plus", "0.7",
                "--gamma", "0.9999", "--grid", "401", "--tol", "1e-14",
                "--out", str(tmp_path),
            ]
        )
        assert rc == 3
        assert "certified error" in capsys.readouterr().err


    def test_default_tol_clears_rounding_floor_near_gamma_one(self, tmp_path, capsys):
        args = [
            "solve",
            "--theta-minus", "0.55", "--theta-plus", "0.7",
            "--gamma", "0.9999999", "--out", str(tmp_path),
        ]
        assert cli.main(args) == 0
        assert cli.main(args + ["--tol", "1e-14"]) == 3
        assert "certified error" in capsys.readouterr().err


class TestIds:
    def test_writes_bundle_and_bound_holds(self, tmp_path):
        proc = run_cli(
            "ids",
            "--theta-minus", "0.55", "--theta-plus", "0.7",
            "--gamma", 0.9, "--alpha", 0.5, "--grid", 401, "--out", tmp_path,
        )
        assert proc.returncode == 0
        assert "holds" in proc.stdout
        for name in (
            "ids_value.csv",
            "ids_regret.csv",
            "ids_policy.csv",
            "ids_ratios.csv",
            "ids_summary.json",
        ):
            assert (tmp_path / name).exists()
        summary = json.loads((tmp_path / "ids_summary.json").read_text())
        assert summary["alpha"] == 0.5
        assert summary["bound_holds"] is True
        assert summary["regret_at_zero"] >= 0.0
        assert summary["regret_at_zero"] <= summary["bound_at_zero"]
        assert summary["sup_ratio"] > 0.0
        with open(tmp_path / "ids_ratios.csv") as fh:
            header = fh.readline().strip().split(",")
        assert header == ["beta", "delta0", "delta1", "info0", "info1", "q_star", "ratio"]

    def test_json_format(self, tmp_path):
        rc = cli.main(
            [
                "ids",
                "--theta-minus", "0.55", "--theta-plus", "0.7",
                "--gamma", "0.9", "--alpha", "0", "--grid", "201",
                "--out", str(tmp_path), "--format", "json",
            ]
        )
        assert rc == 0
        doc = json.loads((tmp_path / "ids_solution.json").read_text())
        assert doc["alpha"] == 0.0
        assert len(doc["policy"]["q"]) == 201

    def test_alpha_above_one_exits_2(self, tmp_path, capsys):
        rc = cli.main(
            [
                "ids",
                "--theta-minus", "0.55", "--theta-plus", "0.7",
                "--gamma", "0.9", "--alpha", "1.5", "--out", str(tmp_path),
            ]
        )
        assert rc == 2

    def test_tol_bounds_certified_error(self, tmp_path, capsys):
        args = [
            "ids",
            "--theta-minus", "0.55", "--theta-plus", "0.7",
            "--gamma", "0.99", "--alpha", "0.5", "--grid", "201",
            "--out", str(tmp_path),
        ]
        assert cli.main(args) == 0
        assert cli.main(args + ["--tol", "1e-30"]) == 3
        assert "certified error" in capsys.readouterr().err

    def test_evaluation_failure_exits_3(self, tmp_path, monkeypatch, capsys):
        def boom(*args, **kwargs):
            raise IterationLimit("sweep budget exhausted", 10, 1.0)

        monkeypatch.setattr(cli, "policy_evaluation", boom)
        rc = cli.main(
            [
                "ids",
                "--theta-minus", "0.55", "--theta-plus", "0.7",
                "--gamma", "0.9", "--alpha", "0.5", "--grid", "201",
                "--out", str(tmp_path),
            ]
        )
        assert rc == 3


class TestCompare:
    def test_symmetric_passes(self, tmp_path):
        proc = run_cli(
            "compare",
            "--theta-minus", 0.7, "--theta-plus", 0.7,
            "--gamma", 0.9, "--grid", 801, "--out", tmp_path,
        )
        assert proc.returncode == 0
        assert "PASS" in proc.stdout
        summary = json.loads((tmp_path / "compare_summary.json").read_text())
        assert summary["subclass"] == "symmetric"
        assert summary["passed"] is True
        assert summary["max_rel_dev"] <= 1e-3
        assert (tmp_path / "compare.csv").exists()

    def test_fair_coin_passes(self, tmp_path, capsys):
        rc = cli.main(
            [
                "compare",
                "--theta-minus", "0.5", "--theta-plus", "0.7",
                "--gamma", "0.99", "--grid", "801", "--out", str(tmp_path),
            ]
        )
        assert rc == 0
        assert "PASS" in capsys.readouterr().out
        summary = json.loads((tmp_path / "compare_summary.json").read_text())
        assert summary["subclass"] == "fair_coin"
        assert summary["passed"] is True

    def test_uncovered_pair_exits_4(self, tmp_path):
        proc = run_cli(
            "compare",
            "--theta-minus", 0.6, "--theta-plus", 0.7,
            "--gamma", 0.9, "--out", tmp_path,
        )
        assert proc.returncode == 4
        assert "error:" in proc.stderr

    def test_symmetric_below_half_exits_4(self, tmp_path, capsys):
        # the closed form needs an informative arm, theta > 1/2
        rc = cli.main(
            [
                "compare",
                "--theta-minus", "0.3", "--theta-plus", "0.3",
                "--gamma", "0.9", "--out", str(tmp_path),
            ]
        )
        assert rc == 4


class TestSweep:
    def write_manifest(self, tmp_path, raw):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(raw))
        return path

    def test_runs_curves_manifest(self, tmp_path):
        path = self.write_manifest(
            tmp_path,
            {
                "kind": "curves",
                "theta_plus": [0.6, 0.7],
                "gammas": [0.9],
                "grid": 201,
                "out_dir": str(tmp_path),
            },
        )
        proc = run_cli("sweep", path)
        assert proc.returncode == 0
        assert "sweep curves: 2 rows, 0 failed" in proc.stdout
        assert "theta,gamma,max_regret" in proc.stdout
        written = list(tmp_path.glob("curves_*.csv"))
        assert len(written) == 1
        assert written[0].with_suffix(".json").exists()

    def test_alpha_meta_reaches_stdout(self, tmp_path, capsys):
        path = self.write_manifest(
            tmp_path,
            {
                "kind": "alpha",
                "theta_minus": 0.55,
                "theta_plus": 0.7,
                "gammas": [0.9],
                "alphas": [0.0, 0.5, 1.0],
                "grid": 201,
                "out_dir": str(tmp_path),
            },
        )
        rc = cli.main(["sweep", str(path)])
        assert rc == 0
        assert "alpha_star: 0.0" in capsys.readouterr().out

    def test_invalid_json_exits_2(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        proc = run_cli("sweep", path)
        assert proc.returncode == 2
        assert "error:" in proc.stderr

    def test_missing_file_exits_2(self, tmp_path, capsys):
        rc = cli.main(["sweep", str(tmp_path / "absent.json")])
        assert rc == 2

    def test_rejected_manifest_exits_2(self, tmp_path, capsys):
        path = self.write_manifest(
            tmp_path, {"kind": "curves", "theta_plus": [0.7], "gammas": [0.9], "mystery": 1}
        )
        rc = cli.main(["sweep", str(path)])
        assert rc == 2


class TestParser:
    def test_prog_name(self):
        assert cli.build_parser().prog == "artifact"

    def test_subcommand_required(self, capsys):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args([])
