"""End-to-end tests for the command-line interface.

A few cases run the real console entry through a subprocess; the rest
call main() in-process for speed and to reach the failure mappings.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from artifact import cli
from artifact import io as artio
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

    @pytest.mark.parametrize("command", ["solve", "ids", "compare"])
    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_non_finite_tol_exits_2_before_writing(self, tmp_path, capsys, command, tol):
        # cert > nan is never true, so a NaN tol would switch the check off
        alpha = ["--alpha", "0.5"] if command == "ids" else []
        rc = cli.main(
            [
                command,
                "--theta-minus", "0.7", "--theta-plus", "0.7", "--gamma", "0.9",
                *alpha, "--grid", "201", f"--tol={tol}", "--out", str(tmp_path),
            ]
        )
        assert rc == 2
        assert "tol must be positive and finite" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

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

    @pytest.mark.parametrize("fmt, name", [("csv", "ids_summary.json"),
                                           ("json", "ids_solution.json")])
    def test_small_alpha_writes_strict_json(self, tmp_path, fmt, name):
        # the sup ratio lies beyond float range at alpha 1e-3
        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        rc = cli.main(
            [
                "ids",
                "--theta-minus", "0.55", "--theta-plus", "0.7",
                "--gamma", "0.99", "--alpha", "0.001", "--grid", "401",
                "--out", str(tmp_path), "--format", fmt,
            ]
        )
        assert rc == 0
        doc = json.loads((tmp_path / name).read_text(), parse_constant=reject)
        assert doc["sup_ratio"] is None
        assert 0.0 < doc["scaled_log_sup_ratio"] < 10.0
        assert doc["bound_holds"] is True

    def test_scaled_log_sup_ratio_matches_sup_ratio(self, tmp_path):
        rc = cli.main(
            [
                "ids",
                "--theta-minus", "0.55", "--theta-plus", "0.7",
                "--gamma", "0.99", "--alpha", "0.5", "--grid", "201",
                "--out", str(tmp_path),
            ]
        )
        assert rc == 0
        doc = json.loads((tmp_path / "ids_summary.json").read_text())
        assert doc["scaled_log_sup_ratio"] == pytest.approx(
            0.5 * math.log(doc["sup_ratio"]), rel=1e-12
        )

    def test_json_writer_rejects_non_finite(self, tmp_path):
        with pytest.raises(ValueError):
            artio.write_json_doc(tmp_path / "x.json", {"x": float("inf")})
        artio.write_json_doc(tmp_path / "x.json", {"x": artio.json_number(float("nan"))})
        assert json.loads((tmp_path / "x.json").read_text()) == {"x": None}

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

    def test_null_out_dir_exits_2(self, tmp_path, monkeypatch, capsys):
        # str(None) would send the sweep to a directory named "None"
        monkeypatch.chdir(tmp_path)
        path = self.write_manifest(
            tmp_path, {"kind": "curves", "theta_plus": [0.7], "gammas": [0.9],
                       "grid": 101, "out_dir": None}
        )
        assert cli.main(["sweep", str(path)]) == 2
        assert "out_dir" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["manifest.json"]


def modules_after(code, prefixes=("scipy",)):
    """Modules under `prefixes` loaded once `code` has run in a fresh
    interpreter."""
    probe = code + (
        "\nimport json, sys"
        f"\nprefixes = {tuple(prefixes)!r}"
        "\nprint(json.dumps(sorted(m for m in sys.modules"
        " if any(m == p or m.startswith(p + '.') for p in prefixes))))"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


class TestStartupImports:
    def test_cli_import_loads_no_pool_or_hashlib(self):
        pool = ("concurrent.futures", "multiprocessing", "hashlib")
        assert modules_after("import artifact.cli", pool) == []

    def test_cli_import_loads_the_traced_modules(self):
        # benchmarks/tracer.py looks these up in sys.modules after
        # `import artifact.cli`, so deferring one breaks every traced run
        traced = [f"artifact.{m}" for m in ("bandit", "experiments", "ids", "io", "solver")]
        assert modules_after("import artifact.cli", traced) == traced


class TestScipyLoadsOnlyToFactor:
    def test_imports_load_no_scipy(self):
        assert modules_after("import artifact") == []
        assert modules_after("import artifact.cli") == []

    @staticmethod
    def run_main(args, prefixes=("scipy",)):
        return modules_after(f"from artifact.cli import main\nassert main({args!r}) == 0", prefixes)

    @pytest.mark.parametrize("grid, lu", [(4001, False), (2001, False)])
    def test_ids_loads_scipy_for_lu_only(self, tmp_path, grid, lu):
        args = [
            "ids", "--theta-minus", "0.55", "--theta-plus", "0.7", "--gamma", "0.99",
            "--alpha", "0.5", "--grid", str(grid), "--out", str(tmp_path),
        ]
        loaded = self.run_main(args)
        assert ("scipy.sparse.linalg" in loaded) == lu
        assert lu or loaded == []
        summary = json.loads((tmp_path / "ids_summary.json").read_text())
        assert summary["grid_points"] == grid and summary["bound_holds"]

    def test_solve_loads_no_scipy(self, tmp_path):
        args = [
            "solve", "--theta-minus", "0.7", "--theta-plus", "0.7", "--gamma", "0.9999",
            "--out", str(tmp_path),
        ]
        assert self.run_main(args) == []
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["grid_points"] == 2001
        assert summary["error_bound"] <= summary["tolerance"]

    @pytest.mark.parametrize("command", [["solve"], ["ids", "--alpha", "0.5"]])
    def test_slow_modes_converge_at_gamma_near_one(self, tmp_path, command):
        # started on the exact linear modes, BiCGSTAB converges where a cold
        # start used up its 200 iterations and fell back to LU
        args = command + [
            "--theta-minus", "0.55", "--theta-plus", "0.7", "--gamma", "0.9999",
            "--grid", "2001", "--out", str(tmp_path),
        ]
        assert self.run_main(args) == []
        (summary,) = tmp_path.glob("*summary.json")
        assert json.loads(summary.read_text())["grid_points"] == 2001

    def test_alpha_sweep_loads_no_scipy(self, tmp_path):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({
            "kind": "alpha", "theta_minus": [0.55], "theta_plus": [0.7], "gammas": [0.99],
            "alphas": [0.0, 0.25, 0.5, 1.0], "grid": 801, "out_dir": str(tmp_path),
        }))
        assert self.run_main(["sweep", str(manifest)], ("scipy", "multiprocessing")) == []
        (csv,) = tmp_path.glob("alpha_*.csv")
        assert len(csv.read_text().splitlines()) == 5

    def test_fallback_loads_scipy_and_meets_certificate(self, tmp_path):
        # near a fair coin BiCGSTAB misses the certificate on the IDS(0.5)
        # policy, LU takes over, and the command exits 0 only if LU meets it
        args = [
            "ids", "--theta-minus", "0.5", "--theta-plus", "0.7", "--gamma", "0.999",
            "--alpha", "0.5", "--grid", "2001", "--out", str(tmp_path),
        ]
        assert "scipy.sparse.linalg" in self.run_main(args)
        summary = json.loads((tmp_path / "ids_summary.json").read_text())
        assert summary["grid_points"] == 2001 and summary["bound_holds"]


class TestParser:
    def test_prog_name(self):
        assert cli.build_parser().prog == "artifact"

    def test_subcommand_required(self, capsys):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args([])

    def test_compare_rejects_format(self, tmp_path, capsys):
        # compare writes CSV and JSON whatever is asked, so it takes no --format
        args = [
            "compare", "--theta-minus", "0.7", "--theta-plus", "0.7", "--gamma", "0.9",
            "--grid", "201", "--out", str(tmp_path), "--format", "json",
        ]
        with pytest.raises(SystemExit) as exc:
            cli.main(args)
        assert exc.value.code == 2
        assert "--format" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []
