"""Tests for the sweep layer: manifests, the four sweep kinds, artifact
files, determinism, and worker resolution."""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

import artifact.experiments as exp
import artifact.solver as solver
from artifact.bandit import BanditSpec
from artifact.errors import InvalidManifest, IterationLimit
from artifact.experiments import (
    SweepManifest,
    delta_R_heatmap,
    max_regret_vs_theta,
    optimal_alpha_search,
    regret_scaling_gamma,
    resolve_workers,
    run_manifest,
)
from artifact.ids import IdsConfig, ids_policy_on_grid
from artifact.solver import (
    BeliefGrid,
    DiscountedProblem,
    default_tolerance,
    mdp_value,
    policy_evaluation,
    policy_iteration,
    regret_curve,
)


# one small manifest of every sweep kind, each with more than one row
KIND_MANIFESTS = {
    "curves": {"kind": "curves", "theta_plus": [0.6, 0.7], "gammas": [0.9]},
    "scaling": {
        "kind": "scaling",
        "theta_minus": [0.5],
        "theta_plus": [0.55],
        "gammas": [0.9, 0.95, 0.99],
    },
    "heatmap": {
        "kind": "heatmap",
        "theta_minus": [0.6, 0.7],
        "theta_plus": [0.6, 0.7],
        "gammas": [0.9],
        "alphas": [0.5],
    },
    "alpha": {
        "kind": "alpha",
        "theta_minus": [0.55],
        "theta_plus": [0.7],
        "gammas": [0.9],
        "alphas": [0.0, 0.5, 1.0],
    },
}


def make_manifest(**overrides):
    raw = {
        "kind": "curves",
        "theta_plus": [0.6, 0.7],
        "gammas": [0.9],
        "grid": 201,
    }
    raw.update(overrides)
    return SweepManifest.from_dict(raw)


class TestManifestValidation:
    def test_round_trip_with_defaults(self):
        m = make_manifest()
        assert m.kind == "curves"
        assert m.theta_plus == (0.6, 0.7)
        assert m.gammas == (0.9,)
        assert m.grid == 201
        assert m.tol is None
        assert m.beta0 == 0.0
        assert m.symmetric is True
        assert m.out_dir == "."

    def test_rejects_non_dict(self):
        with pytest.raises(InvalidManifest):
            SweepManifest.from_dict([1, 2, 3])

    def test_rejects_unknown_field(self):
        with pytest.raises(InvalidManifest, match="unknown"):
            make_manifest(extra_field=1)

    def test_rejects_bad_kind(self):
        with pytest.raises(InvalidManifest, match="kind"):
            make_manifest(kind="surface")

    def test_rejects_theta_outside_unit_interval(self):
        with pytest.raises(InvalidManifest):
            make_manifest(theta_plus=[0.6, 1.2])

    def test_rejects_gamma_at_one(self):
        with pytest.raises(InvalidManifest):
            make_manifest(gammas=[1.0])

    def test_rejects_negative_alpha(self):
        with pytest.raises(InvalidManifest):
            make_manifest(
                kind="alpha",
                theta_minus=[0.55],
                theta_plus=[0.7],
                gammas=[0.9],
                alphas=[-0.5],
            )

    def test_rejects_even_grid(self):
        with pytest.raises(InvalidManifest, match="grid"):
            make_manifest(grid=200)

    def test_rejects_tiny_grid(self):
        with pytest.raises(InvalidManifest, match="grid"):
            make_manifest(grid=1)

    def test_rejects_grid_beyond_index_range(self):
        # such a grid passed validation and failed later inside numpy
        for grid in (10**400 + 1, 2**63 + 1):
            with pytest.raises(InvalidManifest, match=f"at most {np.iinfo(np.intp).max}"):
                make_manifest(grid=grid)

    def test_manifest_built_directly_meets_the_grid_rule(self):
        # construction runs validate(), and so BeliefGrid's own rule, so a
        # non-integral grid that skips from_dict's JSON layer is refused as well
        for grid in (801.5, 801.0, float("nan")):
            with pytest.raises(InvalidManifest, match="manifest field grid"):
                SweepManifest(kind="curves", theta_plus=(0.7,), gammas=(0.9,), grid=grid)

    def test_manifest_without_a_kind_cannot_be_built(self):
        with pytest.raises(InvalidManifest, match="kind must be one of"):
            SweepManifest()

    def test_replacing_a_field_checks_the_new_manifest(self):
        # dataclasses.replace builds a new manifest, so it meets the same rules
        m = make_manifest()
        with pytest.raises(InvalidManifest, match="manifest field grid"):
            dataclasses.replace(m, grid=800)

    def test_rejects_non_integral_grid(self):
        for grid in (801.9, 801.0, True):
            with pytest.raises(InvalidManifest, match="grid"):
                make_manifest(grid=grid)

    def test_rejects_non_boolean_symmetric(self):
        for flag in ("false", 0, None):
            with pytest.raises(InvalidManifest, match="symmetric"):
                make_manifest(symmetric=flag)

    def test_rejects_non_string_out_dir(self):
        # str() would turn null into a directory named "None"
        for out_dir in (None, ["a", "b"], 3):
            with pytest.raises(InvalidManifest, match="out_dir"):
                make_manifest(out_dir=out_dir)

    def test_numeric_fields_take_only_json_numbers(self):
        # float(True) is 1.0 and float("0.7") parses, so each numeric field
        # must refuse a JSON boolean or string and name itself
        cases = [
            ("theta_minus", [True]),
            ("theta_plus", [True, 0.7]),
            ("theta_plus", ["0.7"]),
            ("gammas", [False]),
            ("alphas", [0.5, True]),
            ("tol", True),
            ("tol", "1e-6"),
            ("beta0", False),
            ("beta0", "0"),
            ("alphas", [10**400]),
            ("tol", 10**400),
        ]
        for key, val in cases:
            with pytest.raises(InvalidManifest, match=f"malformed manifest field {key}"):
                make_manifest(**{key: val})
        with pytest.raises(InvalidManifest, match="theta_plus"):
            SweepManifest.from_dict({
                "kind": "curves", "theta_plus": [True, 0.7], "gammas": [0.9],
                "grid": 201, "tol": True, "beta0": False,
            })

    def test_rejects_nonpositive_tol(self, tmp_path):
        for tol in (0.0, float("nan"), float("inf")):
            with pytest.raises(InvalidManifest, match="tol"):
                make_manifest(tol=tol)
        # Python's json reads the NaN literal
        path = tmp_path / "man.json"
        path.write_text('{"kind": "curves", "theta_plus": [0.7], "gammas": [0.9], "tol": NaN}')
        with pytest.raises(InvalidManifest, match="tol"):
            SweepManifest.from_json(path)

    def test_rejects_beta0_outside_range(self):
        with pytest.raises(InvalidManifest, match="beta0"):
            make_manifest(beta0=1.5)

    def test_curves_needs_theta_axis(self):
        with pytest.raises(InvalidManifest, match="curves"):
            make_manifest(theta_plus=[])

    def test_scaling_needs_single_spec(self):
        with pytest.raises(InvalidManifest, match="scaling"):
            SweepManifest.from_dict(
                {
                    "kind": "scaling",
                    "theta_minus": [0.5],
                    "theta_plus": [0.55, 0.6],
                    "gammas": [0.9, 0.99],
                }
            )

    def test_heatmap_needs_single_gamma_and_alpha(self):
        with pytest.raises(InvalidManifest, match="heatmap"):
            SweepManifest.from_dict(
                {
                    "kind": "heatmap",
                    "theta_minus": [0.6],
                    "theta_plus": [0.7],
                    "gammas": [0.9, 0.99],
                    "alphas": [0.5],
                }
            )

    def test_alpha_search_needs_alpha_grid(self):
        with pytest.raises(InvalidManifest, match="alpha"):
            SweepManifest.from_dict(
                {
                    "kind": "alpha",
                    "theta_minus": [0.55],
                    "theta_plus": [0.7],
                    "gammas": [0.9],
                    "alphas": [],
                }
            )

    @pytest.mark.parametrize("kind, name, takes, count", [
        (kind, name, takes, count)
        for kind, shapes in {
            "curves": {"theta_plus": "at least one", "gammas": "at least one"},
            "scaling": {"theta_minus": "exactly one", "theta_plus": "exactly one",
                        "gammas": "at least one"},
            "heatmap": {"theta_minus": "at least one", "theta_plus": "at least one",
                        "gammas": "exactly one", "alphas": "exactly one"},
            "alpha": {"theta_minus": "exactly one", "theta_plus": "exactly one",
                      "gammas": "exactly one", "alphas": "at least one"},
        }.items()
        for name, takes in shapes.items()
        for count in ((0, 2) if takes == "exactly one" else (0,))
    ])
    def test_each_kind_refuses_a_list_of_the_wrong_length(self, kind, name, takes, count):
        # each list a kind reads takes exactly one value or at least one,
        # and the error names the field
        raw = dict(KIND_MANIFESTS[kind], grid=201)
        raw[name] = raw[name][:1] * count
        with pytest.raises(InvalidManifest) as info:
            SweepManifest.from_dict(raw)
        assert str(info.value) == f"manifest field {name}: {kind} takes {takes} value, got {count}"

    def test_scalar_fields_become_singleton_grids(self):
        m = SweepManifest.from_dict(
            {
                "kind": "scaling",
                "theta_minus": 0.5,
                "theta_plus": 0.55,
                "gammas": [0.9, 0.99],
                "grid": 201,
            }
        )
        assert m.theta_minus == (0.5,)
        assert m.theta_plus == (0.55,)

    def test_grid_fields_take_only_numbers_or_arrays(self):
        # a string iterates by character and an object by key, so neither
        # may pass for a grid; the message names the field and the value
        for key, val in [("alphas", ""), ("theta_minus", {}),
                         ("theta_minus", "0.55"), ("gammas", {"0.99": 1})]:
            with pytest.raises(InvalidManifest) as info:
                make_manifest(**{key: val})
            assert f"malformed manifest field {key}: {val!r}" in str(info.value)
        assert make_manifest(alphas=[]).alphas == ()
        assert make_manifest(gammas=0.99).gammas == (0.99,)

    def test_malformed_field_type(self):
        with pytest.raises(InvalidManifest, match="malformed"):
            make_manifest(grid="nonsense")

    def test_from_json_round_trip(self, tmp_path):
        path = tmp_path / "man.json"
        path.write_text(
            json.dumps({"kind": "curves", "theta_plus": [0.7], "gammas": [0.9]})
        )
        m = SweepManifest.from_json(path)
        assert m.kind == "curves"
        assert m.theta_plus == (0.7,)

    def test_from_json_rejects_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(InvalidManifest, match="JSON"):
            SweepManifest.from_json(path)


class TestDigest:
    def test_digest_is_stable(self):
        assert make_manifest().digest() == make_manifest().digest()

    def test_digest_ignores_out_dir(self):
        a = make_manifest(out_dir="a")
        b = make_manifest(out_dir="b")
        assert a.digest() == b.digest()
        assert "out_dir" not in a.canonical()

    def test_digest_tracks_parameters(self):
        assert make_manifest().digest() != make_manifest(grid=401).digest()
        assert make_manifest().digest() != make_manifest(gammas=[0.95]).digest()

    def test_digest_shape(self):
        d = make_manifest().digest()
        assert len(d) == 12
        assert all(c in "0123456789abcdef" for c in d)


class TestCurves:
    def test_columns_and_sorting(self):
        r = max_regret_vs_theta((0.95, 0.9), (0.7, 0.6), grid=201)
        assert r.kind == "curves"
        assert r.columns == ("theta", "gamma", "max_regret")
        assert r.rows == sorted(r.rows)
        assert len(r.rows) == 4

    def test_symmetric_metric_vanishes_at_half(self):
        # theta = 1/2 makes both arms state-independent coins
        r = max_regret_vs_theta((0.9,), (0.5,), symmetric=True, grid=201)
        assert r.rows[0][2] <= 1e-6

    def test_symmetric_metric_near_one(self):
        r = max_regret_vs_theta((0.9,), (0.995,), symmetric=True, grid=401)
        assert abs(r.rows[0][2] - 0.5) < 0.1

    # np.linspace alone leaves -1.1e-16 at the middle node of N 99
    @pytest.mark.parametrize("n", [201, 99])
    def test_fair_metric_is_regret_at_center(self, n):
        r = max_regret_vs_theta((0.9,), (0.7,), symmetric=False, grid=n)
        prob = DiscountedProblem(BanditSpec(0.5, 0.7), 0.9)
        v, _, _ = policy_iteration(prob, BeliefGrid(n))
        assert r.rows[0][2] == float(mdp_value(prob, 0.0) - v(0.0))
        assert r.meta["symmetric"] is False

    def test_peak_moves_left_as_gamma_grows(self):
        thetas = np.round(np.arange(0.53, 0.96, 0.03), 4)
        r = max_regret_vs_theta((0.9, 0.99), thetas, symmetric=True, grid=301)
        peaks = {}
        for theta, gamma, metric in r.rows:
            if gamma not in peaks or metric > peaks[gamma][0]:
                peaks[gamma] = (metric, theta)
        assert peaks[0.99][1] < peaks[0.9][1]


class TestScaling:
    def test_rows_sorted_and_fitted(self):
        r = regret_scaling_gamma(BanditSpec(0.5, 0.55), (0.99, 0.9, 0.999), grid=401)
        assert r.columns == ("one_minus_gamma", "regret_opt", "regret_ids0")
        xs = [row[0] for row in r.rows]
        assert xs == sorted(xs)
        for label in ("fit_opt", "fit_ids0"):
            fit = r.meta[label]
            assert set(fit) == {"c1", "c2", "r_squared"}
            assert 0.0 <= fit["r_squared"] <= 1.0

    def test_ids_regret_dominates_optimal(self):
        r = regret_scaling_gamma(BanditSpec(0.5, 0.55), (0.9, 0.99), grid=401)
        for _, r_opt, r_ids in r.rows:
            assert r_ids >= r_opt - 1e-9

    def test_no_fit_below_three_rows(self):
        r = regret_scaling_gamma(BanditSpec(0.5, 0.55), (0.9, 0.99), grid=201)
        assert "fit_opt" not in r.meta

    def test_fit_needs_three_distinct_gammas(self):
        r = regret_scaling_gamma(BanditSpec(0.5, 0.55), (0.9, 0.9, 0.9), grid=201)
        assert len(r.rows) == 3
        assert "fit_opt" not in r.meta and "fit_ids0" not in r.meta

    def test_rows_read_the_regret_curves_between_nodes(self):
        # 0.123 lies between nodes of N 201, where the interpolated regret
        # curve and V_mdp(beta0) - v(beta0) part in their last bits
        grid, beta0 = BeliefGrid(201), 0.123
        r = regret_scaling_gamma(BanditSpec(0.5, 0.7), (0.9, 0.99), beta0=beta0, grid=201)
        assert not r.failures and len(r.rows) == 2
        for (key, r_opt, r_ids), gamma in zip(r.rows, (0.99, 0.9)):
            prob = DiscountedProblem(BanditSpec(0.5, 0.7), gamma)
            vopt = solver._optimal_solve(prob, grid, None)[0]
            policy = ids_policy_on_grid(prob, grid, IdsConfig(alpha=0.0, gamma=gamma))
            vids = policy_evaluation(prob, policy, x0=vopt)
            assert key == 1.0 - gamma
            assert r_opt == regret_curve(prob, vopt)(beta0)
            assert r_ids == regret_curve(prob, vids)(beta0)


class TestHeatmap:
    def test_diagonal_and_dominance(self):
        r = delta_R_heatmap((0.6, 0.7), (0.6, 0.7), 0.9, 0.5, grid=201)
        assert r.columns == ("theta_minus", "theta_plus", "delta_R")
        cells = {(tm, tp): d for tm, tp, d in r.rows}
        assert cells[(0.6, 0.6)] <= 1e-6
        assert cells[(0.7, 0.7)] <= 1e-6
        for d in cells.values():
            # the optimal value dominates any evaluated policy
            assert d >= -1e-6

    def test_transpose_symmetry(self):
        # swapping arm labels mirrors the problem, so the gap metric
        # matches across the diagonal up to solver error
        r = delta_R_heatmap((0.6, 0.7), (0.6, 0.7), 0.9, 0.5, grid=201)
        cells = {(tm, tp): d for tm, tp, d in r.rows}
        assert cells[(0.6, 0.7)] == pytest.approx(cells[(0.7, 0.6)], abs=1e-6)

    def test_meta_records_parameters(self):
        r = delta_R_heatmap((0.6,), (0.7,), 0.9, 0.25, grid=201)
        assert r.meta["gamma"] == 0.9
        assert r.meta["alpha"] == 0.25

    def test_heatmap_thetas_may_lie_anywhere_in_the_unit_interval(self, tmp_path):
        # a theta's range is BanditSpec's, [0, 1]; where the optimal regret
        # stays below the floor, as on two fair coins, the gap is 0
        thetas = {"theta_minus": [0.0, 0.3, 0.5, 1.0], "theta_plus": [0.0, 0.45, 0.5, 1.0]}
        m = SweepManifest.from_dict({**KIND_MANIFESTS["heatmap"], **thetas, "grid": 101,
                                     "out_dir": str(tmp_path)})
        out = run_manifest(m)
        res = out["result"]
        assert res.failures == []
        assert [row[:2] for row in res.rows] == [
            (tm, tp) for tm in thetas["theta_minus"] for tp in thetas["theta_plus"]
        ]
        assert {(tm, tp): d for tm, tp, d in res.rows}[(0.5, 0.5)] == 0.0
        assert len(Path(out["csv"]).read_text().splitlines()) == 1 + 16


class TestAlphaSearch:
    def test_alpha_star_is_argmin(self):
        r = optimal_alpha_search(0.55, 0.7, 0.9, (1.0, 0.5, 0.0, 0.25), grid=201)
        assert r.columns == ("alpha", "delta_R")
        assert [row[0] for row in r.rows] == [0.0, 0.25, 0.5, 1.0]
        best = min(r.rows, key=lambda row: (row[1], row[0]))
        assert r.meta["alpha_star"] == best[0]

    def test_gaps_are_nonnegative(self):
        r = optimal_alpha_search(0.55, 0.7, 0.9, (0.0, 0.5, 1.0), grid=201)
        for _, gap in r.rows:
            assert gap >= -1e-9

    def test_no_regret_gives_zero_gaps(self):
        # on two fair coins the optimal regret is 0 at every belief, below
        # the floor, so every alpha's gap is 0
        r = optimal_alpha_search(0.5, 0.5, 0.9, (0.0, 0.5, 1.0), grid=201)
        assert r.rows == [(0.0, 0.0), (0.5, 0.0), (1.0, 0.0)]
        assert r.failures == []

    def test_failed_optimal_solve_fails_every_row(self):
        # no certificate meets tol 1e-20; the sweep records every alpha
        r = optimal_alpha_search(0.55, 0.7, 0.9, (0.0, 0.5), grid=201, tol=1e-20)
        assert r.rows == []
        assert [f["row"] for f in r.failures] == [[0.0], [0.5]]
        assert all("IterationLimit" in f["error"] for f in r.failures)
        assert "alpha_star" not in r.meta


class TestValuesCheckedBeforeAnySolve:
    """A bad alpha or beta0 is refused while the jobs are built, by the rule
    that checks a manifest's value, before any optimal solve."""

    @pytest.mark.parametrize("sweep, args, kwargs, message", [
        (delta_R_heatmap, ([0.6], [0.7], 0.9, 1.5), {}, "alpha must lie in"),
        (optimal_alpha_search, (0.55, 0.7, 0.9, [0.5, 2.0]), {}, "alpha must lie in"),
        (regret_scaling_gamma, (BanditSpec(0.5, 0.55), [0.9, 0.95, 0.99]), {"beta0": 1.5},
         "beta must lie in"),
    ])
    def test_bad_value_raises_with_no_solve(self, monkeypatch, sweep, args, kwargs, message):
        calls = []
        real = exp._optimal_solve
        monkeypatch.setattr(exp, "_optimal_solve",
                            lambda *a: calls.append(a) or real(*a))
        with pytest.raises(ValueError, match=message):
            sweep(*args, grid=101, **kwargs)
        assert calls == []


class TestRunManifest:
    def test_writes_named_artifacts(self, tmp_path):
        m = make_manifest(out_dir=str(tmp_path))
        out = run_manifest(m)
        stem = f"curves_{m.digest()}"
        assert Path(out["csv"]).name == stem + ".csv"
        assert Path(out["json"]).name == stem + ".json"
        doc = json.loads(Path(out["json"]).read_text())
        assert doc["digest"] == m.digest()
        assert doc["columns"] == ["theta", "gamma", "max_regret"]
        assert doc["row_count"] == 2
        assert doc["failures"] == []
        assert doc["workers"] == 1
        assert doc["csv"] == stem + ".csv"
        assert doc["manifest"]["kind"] == "curves"
        assert "out_dir" not in doc["manifest"]

    def test_csv_bytes_are_reproducible(self, tmp_path):
        paths = []
        for sub in ("a", "b"):
            m = make_manifest(out_dir=str(tmp_path / sub))
            paths.append(Path(run_manifest(m)["csv"]))
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_tol_does_not_change_bytes(self, tmp_path):
        # tol only accepts or rejects the certified optimal value
        plain = make_manifest(out_dir=str(tmp_path / "plain"))
        bounded = make_manifest(tol=1e-6, out_dir=str(tmp_path / "bounded"))
        b1 = Path(run_manifest(plain)["csv"]).read_bytes()
        b2 = Path(run_manifest(bounded)["csv"]).read_bytes()
        assert b1 == b2

    @pytest.mark.parametrize("kind", sorted(KIND_MANIFESTS))
    def test_workers_do_not_change_bytes(self, tmp_path, kind):
        raw = {**KIND_MANIFESTS[kind], "grid": 201}
        serial = SweepManifest.from_dict({**raw, "out_dir": str(tmp_path / "s")})
        pooled = SweepManifest.from_dict({**raw, "out_dir": str(tmp_path / "p")})
        b1 = Path(run_manifest(serial, n_workers=1)["csv"]).read_bytes()
        b2 = Path(run_manifest(pooled, n_workers=2)["csv"]).read_bytes()
        assert b1 == b2

    SWEEPS = {"curves": "max_regret_vs_theta", "scaling": "regret_scaling_gamma",
              "heatmap": "delta_R_heatmap", "alpha": "optimal_alpha_search"}

    def test_dispatches_all_kinds(self, tmp_path, monkeypatch):
        # a kind's run looks its sweep function up on the module when called,
        # so a name rebound there, as the benchmark's tracer does, is the one run
        calls = []

        def spy(name, real):
            def run(*args, **kwargs):
                calls.append((name, real(*args, **kwargs)))
                return calls[-1][1]
            return run

        for name in self.SWEEPS.values():
            monkeypatch.setattr(exp, name, spy(name, getattr(exp, name)))
        for kind, raw in KIND_MANIFESTS.items():
            calls.clear()
            raw = {**raw, "grid": 201, "out_dir": str(tmp_path)}
            out = run_manifest(SweepManifest.from_dict(raw))
            assert calls == [(self.SWEEPS[kind], out["result"])]
            assert Path(out["csv"]).exists()
            assert Path(out["json"]).exists()
            assert out["result"].kind == kind and out["result"].rows

    # per kind: which optimal solves fail, the keys of the rows they fail
    # and how many rows survive
    FAILING = {
        "curves": (lambda prob: prob.spec.theta_plus == 0.6, [[0.6, 0.9]], 1),
        "scaling": (lambda prob: prob.gamma == 0.95, [[1.0 - 0.95]], 2),
        "heatmap": (
            lambda prob: prob.spec.theta_plus == 0.6, [[0.6, 0.6], [0.7, 0.6]], 2
        ),
        # every alpha shares the one optimal solve, so every row fails
        "alpha": (lambda prob: True, [[0.0], [0.5], [1.0]], 0),
    }

    @pytest.mark.parametrize("kind", sorted(KIND_MANIFESTS))
    def test_failed_rows_are_recorded_not_fatal(self, tmp_path, monkeypatch, kind):
        fails, failed_keys, survivors = self.FAILING[kind]
        real = exp._optimal_solve

        def flaky(prob, grid, tol):
            if fails(prob):
                raise IterationLimit("sweep budget exhausted", 5, 1.0)
            return real(prob, grid, tol)

        monkeypatch.setattr(exp, "_optimal_solve", flaky)
        m = SweepManifest.from_dict(
            {**KIND_MANIFESTS[kind], "grid": 201, "out_dir": str(tmp_path)}
        )
        out = run_manifest(m, n_workers=1)
        res = out["result"]
        assert [f["row"] for f in res.failures] == failed_keys
        assert all(set(f) == {"row", "error"} for f in res.failures)
        assert all("IterationLimit" in f["error"] for f in res.failures)
        assert len(res.rows) == survivors
        assert not any(list(row[: len(failed_keys[0])]) in failed_keys for row in res.rows)
        doc = json.loads(Path(out["json"]).read_text())
        assert doc["row_count"] == len(res.rows)
        assert doc["failures"] == res.failures
        with open(out["csv"]) as fh:
            lines = fh.read().splitlines()
        assert len(lines) == 1 + len(res.rows)  # header plus the surviving rows
        if kind == "curves":
            assert lines[1].startswith("0.7,")
        if kind == "alpha":
            assert "alpha_star" not in res.meta


# the alphas of the benchmark's alpha-sweep workload
BENCHMARK_ALPHAS = [0.0, 0.001, 0.01, 0.05, 0.075] + [round(0.1 + 0.05 * k, 2) for k in range(19)]


class TestLockstepChunks:
    """A chunk solves its rows' IDS evaluations in one lockstep solve,
    which leaves every row as it would be alone."""

    def test_chunk_size_follows_the_grid(self):
        assert exp._CHUNK_NODES // 801 == 8
        assert exp._CHUNK_NODES // 20001 == 0

    def test_benchmark_rows_equal_one_alpha_runs(self):
        # 24 rows at N 801 run as chunks of 8; each equals, bit for bit,
        # its alpha swept alone
        r = optimal_alpha_search(0.55, 0.7, 0.99, BENCHMARK_ALPHAS, grid=801)
        assert not r.failures and len(r.rows) == len(BENCHMARK_ALPHAS)
        alone = [optimal_alpha_search(0.55, 0.7, 0.99, [a], grid=801).rows[0]
                 for a in BENCHMARK_ALPHAS]
        assert np.array(r.rows).tobytes() == np.array(sorted(alone)).tobytes()

    def test_phases_run_in_order(self, monkeypatch):
        # the four cells share one chunk: every optimal solve comes before
        # the one lockstep evaluation, and every row is built after it
        tm, tp = KIND_MANIFESTS["heatmap"]["theta_minus"], KIND_MANIFESTS["heatmap"]["theta_plus"]
        calls = []

        def spy(name, real):
            def call(*args):
                calls.append(name)
                return real(*args)
            monkeypatch.setattr(exp, name, call)

        for name in ("_optimal_solve", "_certified_solves", "_gap_row"):
            spy(name, getattr(exp, name))
        r = delta_R_heatmap(tm, tp, 0.9, 0.5, grid=201)
        assert len(r.rows) == 4 and not r.failures
        assert calls == ["_optimal_solve"] * 4 + ["_certified_solves"] + ["_gap_row"] * 4

    def test_a_curves_chunk_solves_no_equations(self, monkeypatch):
        # curves rows have no IDS policy: the chunk's one lockstep call
        # takes an empty list and every row is still written
        real, chunks = exp._certified_solves, []

        def record(equations, tol, what):
            chunks.append(len(equations))
            return real(equations, tol, what)

        monkeypatch.setattr(exp, "_certified_solves", record)
        r = max_regret_vs_theta((0.95, 0.9), (0.7, 0.6), grid=201)
        assert chunks == [0] and len(r.rows) == 4 and not r.failures

    def test_a_failed_evaluation_fails_its_row_alone(self, monkeypatch):
        # the four cells share one chunk; the evaluation of (0.7, 0.6)
        # misses its certificate and the other three keep their values
        tm, tp = KIND_MANIFESTS["heatmap"]["theta_minus"], KIND_MANIFESTS["heatmap"]["theta_plus"]
        before = delta_R_heatmap(tm, tp, 0.9, 0.5, grid=201)
        miss = IterationLimit("policy evaluation: certified error 1 of the LU solve exceeds tol=0")
        real, chunks = exp._certified_solves, []

        def one_misses(equations, tol, what):
            chunks.append(len(equations))
            values = real(equations, tol, what)
            return [miss if eq[0].prob.spec == BanditSpec(0.7, 0.6) else v
                    for eq, v in zip(equations, values)]

        monkeypatch.setattr(exp, "_certified_solves", one_misses)
        after = delta_R_heatmap(tm, tp, 0.9, 0.5, grid=201)
        assert chunks == [4]
        assert after.failures == [{"row": [0.7, 0.6], "error": repr(miss)}]
        assert after.rows == [row for row in before.rows if row[:2] != (0.7, 0.6)]


@pytest.fixture
def fake_pool(monkeypatch):
    """Replace the process pool by one that runs its jobs in this process
    and records the worker count of every pool made; no process starts."""
    seen = []

    class FakePool:
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs, chunksize=1):
            return map(fn, jobs)

    # _run_jobs imports the pool class only when it needs one
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", FakePool)
    return seen


class TestRunJobs:
    def test_pool_is_capped_at_the_job_count(self, fake_pool):
        # a pool starts every worker at its first submit, so 64 requested
        # workers for 3 jobs must start 3
        assert exp._run_jobs([1, 2, 3], abs, 64) == [1, 2, 3]
        assert exp._run_jobs([1, 2], abs, 2) == [1, 2]
        assert fake_pool == [3, 2]

    @pytest.mark.parametrize(
        "sweep, args",
        [
            (regret_scaling_gamma, (BanditSpec(0.5, 0.55), (0.9, 0.95))),
            (optimal_alpha_search, (0.55, 0.7, 0.9, (0.0, 0.5))),
        ],
        ids=["scaling", "alpha"],
    )
    def test_scaling_and_alpha_go_through_the_pool(self, fake_pool, sweep, args):
        serial = sweep(*args, grid=201, n_workers=1)
        assert fake_pool == []
        pooled = sweep(*args, grid=201, n_workers=2)
        assert fake_pool == [2]
        assert pooled.rows == serial.rows


class TestOptimalSolve:
    @pytest.fixture
    def pi_calls(self, monkeypatch):
        # the policy_iteration calls behind _optimal_solve, from an empty cache
        calls = []
        real = solver.policy_iteration
        monkeypatch.setattr(solver, "policy_iteration", lambda *a: calls.append(a) or real(*a))
        solver._policy_optimum.cache_clear()
        yield calls
        solver._policy_optimum.cache_clear()

    def test_cached_value_is_shared_and_read_only(self):
        # the rows of an alpha sweep share this one solve, so no row may
        # change its value or its policy under the next
        prob = DiscountedProblem(BanditSpec(0.55, 0.7), 0.9)
        first = exp._optimal_solve(prob, BeliefGrid(201), None)
        second = exp._optimal_solve(prob, BeliefGrid(201), None)
        assert second[0] is first[0] and second[1] is first[1]
        v, policy, rounds, bound = second
        assert rounds >= 1 and 0.0 <= bound <= default_tolerance(0.9)
        for arr in (v.values, policy.q):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0

    def test_every_tol_shares_one_policy_iteration(self, pi_calls):
        # policy iteration never reads tol, so the cache is keyed on
        # (prob, grid) alone and each call certifies against its own tol
        prob, grid = DiscountedProblem(BanditSpec(0.55, 0.7), 0.9), BeliefGrid(201)
        exp._optimal_solve(prob, grid, None)
        exp._optimal_solve(prob, grid, default_tolerance(0.9))
        with pytest.raises(IterationLimit):
            exp._optimal_solve(prob, grid, 1e-20)
        exp._optimal_solve(prob, grid, None)
        assert len(pi_calls) == 1
        assert solver._policy_optimum.cache_info()[:2] == (3, 1)

    def test_failed_certificate_runs_policy_iteration_once(self, pi_calls):
        # a tol no certificate meets fails every row of the sweep, from the
        # one optimum that all its rows share
        r = optimal_alpha_search(0.55, 0.7, 0.9, (0.0, 0.5, 1.0), grid=201, tol=1e-20,
                                 n_workers=1)
        assert r.rows == []
        assert [f["row"] for f in r.failures] == [[0.0], [0.5], [1.0]]
        assert all("IterationLimit" in f["error"] for f in r.failures)
        assert len(pi_calls) == 1


class TestResolveWorkers:
    def test_argument_wins(self, monkeypatch):
        monkeypatch.setenv(exp.WORKERS_ENV, "7")
        assert resolve_workers(3) == 3

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv(exp.WORKERS_ENV, "4")
        assert resolve_workers() == 4

    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv(exp.WORKERS_ENV, raising=False)
        assert resolve_workers() == 1

    def test_garbage_env_ignored(self, monkeypatch):
        monkeypatch.setenv(exp.WORKERS_ENV, "lots")
        assert resolve_workers() == 1

    def test_floor_at_one(self):
        assert resolve_workers(0) == 1
        assert resolve_workers(-2) == 1
