"""Parameter sweeps over the belief problem, emitting tabular artifacts.

Four sweep kinds are supported: regret-versus-theta curves, regret
scaling as gamma approaches one, relative-regret heatmaps over arm
parameters, and a search over the ratio exponent alpha.  Sweeps are
described by a JSON manifest, rows are independent jobs that a process
pool may run concurrently, and the pipeline contains no randomness, so
identical manifests produce byte-identical CSV files.  Rows that fail
inside the solver are recorded as failures rather than aborting the
sweep.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields

import numpy as np

from . import io as artio
from .analytic import fit_log_regret_expansion
from .bandit import BanditSpec
from .errors import BanditError, InvalidManifest
from .ids import IdsConfig, ids_policy_on_grid
from .solver import (
    BeliefGrid,
    DiscountedProblem,
    certify_optimal,
    mdp_value,
    policy_evaluation,
    policy_iteration,
    regret_curve,
)

__all__ = [
    "SweepManifest",
    "SweepResult",
    "max_regret_vs_theta",
    "regret_scaling_gamma",
    "delta_R_heatmap",
    "optimal_alpha_search",
    "run_manifest",
    "resolve_workers",
]

WORKERS_ENV = "ARTIFACT_WORKERS"

_KINDS = ("curves", "scaling", "heatmap", "alpha")

_COLUMNS = {
    "curves": ("theta", "gamma", "max_regret"),
    "scaling": ("one_minus_gamma", "regret_opt", "regret_ids0"),
    "heatmap": ("theta_minus", "theta_plus", "delta_R"),
    "alpha": ("alpha", "delta_R"),
}


@dataclass(frozen=True)
class SweepManifest:
    """Declarative description of one sweep.

    Which fields matter depends on `kind`: curves uses theta_plus as its
    theta axis together with the symmetric flag, scaling and alpha take a
    single spec, and heatmap crosses the two theta grids at a single
    (gamma, alpha).
    """

    kind: str
    theta_minus: tuple = ()
    theta_plus: tuple = ()
    gammas: tuple = ()
    alphas: tuple = ()
    grid: int = 801
    tol: float | None = None
    beta0: float = 0.0
    symmetric: bool = True
    out_dir: str = "."

    @classmethod
    def from_dict(cls, raw: dict) -> "SweepManifest":
        if not isinstance(raw, dict):
            raise InvalidManifest("manifest must be a JSON object")
        unknown = set(raw) - {f.name for f in fields(cls)}
        if unknown:
            raise InvalidManifest(f"unknown manifest fields: {sorted(unknown)}")
        def seq(key):
            # scalars are accepted as singleton grids
            val = raw.get(key, ())
            if isinstance(val, (int, float)) and not isinstance(val, bool):
                val = (val,)
            return tuple(float(x) for x in val)

        try:
            m = cls(
                kind=raw.get("kind", ""),
                theta_minus=seq("theta_minus"),
                theta_plus=seq("theta_plus"),
                gammas=seq("gammas"),
                alphas=seq("alphas"),
                grid=int(raw.get("grid", 801)),
                tol=None if raw.get("tol") is None else float(raw["tol"]),
                beta0=float(raw.get("beta0", 0.0)),
                symmetric=bool(raw.get("symmetric", True)),
                out_dir=str(raw.get("out_dir", ".")),
            )
        except (TypeError, ValueError) as exc:
            raise InvalidManifest(f"malformed manifest field: {exc}") from exc
        m.validate()
        return m

    @classmethod
    def from_json(cls, path) -> "SweepManifest":
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InvalidManifest(f"manifest is not valid JSON: {exc}") from exc
        return cls.from_dict(raw)

    def validate(self):
        if self.kind not in _KINDS:
            raise InvalidManifest(
                f"kind must be one of {_KINDS}, got {self.kind!r}"
            )
        for name in ("theta_minus", "theta_plus"):
            for v in getattr(self, name):
                if not 0.0 <= v <= 1.0:
                    raise InvalidManifest(f"{name} value {v} outside [0, 1]")
        for g in self.gammas:
            if not 0.0 <= g < 1.0:
                raise InvalidManifest(f"gamma value {g} outside [0, 1)")
        for a in self.alphas:
            if not 0.0 <= a <= 1.0:
                raise InvalidManifest(f"alpha value {a} outside [0, 1]")
        if self.grid < 3 or self.grid % 2 == 0:
            raise InvalidManifest(f"grid must be odd and >= 3, got {self.grid}")
        if self.tol is not None and self.tol <= 0.0:
            raise InvalidManifest("tol must be positive when given")
        if not -1.0 <= self.beta0 <= 1.0:
            raise InvalidManifest(f"beta0 {self.beta0} outside [-1, 1]")
        if self.kind == "curves":
            if not self.theta_plus or not self.gammas:
                raise InvalidManifest("curves needs theta_plus and gammas")
        elif self.kind == "scaling":
            if len(self.theta_minus) != 1 or len(self.theta_plus) != 1:
                raise InvalidManifest("scaling needs exactly one spec")
            if not self.gammas:
                raise InvalidManifest("scaling needs gammas")
        elif self.kind == "heatmap":
            if not self.theta_minus or not self.theta_plus:
                raise InvalidManifest("heatmap needs both theta grids")
            if len(self.gammas) != 1 or len(self.alphas) != 1:
                raise InvalidManifest("heatmap needs exactly one gamma and one alpha")
            for name in ("theta_minus", "theta_plus"):
                for v in getattr(self, name):
                    if not 0.5 < v < 1.0:
                        raise InvalidManifest(
                            f"heatmap {name} value {v} outside (0.5, 1)"
                        )
        elif self.kind == "alpha":
            if len(self.theta_minus) != 1 or len(self.theta_plus) != 1:
                raise InvalidManifest("alpha search needs exactly one spec")
            if len(self.gammas) != 1 or not self.alphas:
                raise InvalidManifest("alpha search needs one gamma and an alpha grid")

    def canonical(self) -> dict:
        """Parameter content only; the output directory does not change
        what is computed, so it stays out of the digest."""
        doc = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "out_dir"}
        return {k: list(v) if isinstance(v, tuple) else v for k, v in doc.items()}

    def digest(self) -> str:
        blob = json.dumps(self.canonical(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:12]


@dataclass
class SweepResult:
    kind: str
    columns: tuple
    rows: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)


def resolve_workers(n_workers=None) -> int:
    if n_workers is not None:
        return max(1, int(n_workers))
    env = os.environ.get(WORKERS_ENV)
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return 1


def _optimal_solve(prob, grid, tol):
    """Optimal value on the grid by policy iteration, certified by one
    Bellman backup; raises IterationLimit when the certified error exceeds
    tol (default default_tolerance(gamma))."""
    v, _, _ = policy_iteration(prob, grid)
    certify_optimal(prob, v, tol)
    return v


def _ids_regret_nodes(prob, grid, alpha):
    policy = ids_policy_on_grid(prob, grid, IdsConfig(alpha=alpha, gamma=prob.gamma))
    return regret_curve(prob, policy_evaluation(prob, policy, method="direct")).values


def _max_relative_excess(r_ids, r_opt):
    """Max relative excess of the IDS regret over the optimal regret,
    taken over beliefs whose optimal regret clears the floor."""
    mask = r_opt > max(1e-6, 1e-4 * float(np.max(r_opt)))
    if not np.any(mask):
        return 0.0
    return float(np.max((r_ids[mask] - r_opt[mask]) / r_opt[mask]))


def _relative_gap(tm, tp, gamma, alpha, n, tol):
    prob = DiscountedProblem(BanditSpec(tm, tp), gamma)
    grid = BeliefGrid(n)
    r_opt = regret_curve(prob, _optimal_solve(prob, grid, tol)).values
    return _max_relative_excess(_ids_regret_nodes(prob, grid, alpha), r_opt)


def _curve_cell(args):
    theta, gamma, symmetric, n, tol = args
    tm = theta if symmetric else 0.5
    prob = DiscountedProblem(BanditSpec(tm, theta), gamma)
    grid = BeliefGrid(n)
    try:
        r = regret_curve(prob, _optimal_solve(prob, grid, tol)).values
        metric = float(np.max(r)) if symmetric else float(r[(n - 1) // 2])
        return (theta, gamma, metric), None
    except BanditError as exc:
        return (theta, gamma, None), repr(exc)


def _heatmap_cell(args):
    tm, tp, gamma, alpha, n, tol = args
    try:
        return (tm, tp, _relative_gap(tm, tp, gamma, alpha, n, tol)), None
    except BanditError as exc:
        return (tm, tp, None), repr(exc)


def _run_jobs(jobs, worker, n_workers):
    if n_workers <= 1 or len(jobs) <= 1:
        return [worker(j) for j in jobs]
    with ProcessPoolExecutor(max_workers=n_workers) as pool:
        return list(pool.map(worker, jobs, chunksize=1))


def _collect(result, outputs):
    for row, err in outputs:
        if err is None:
            result.rows.append(row)
        else:
            result.failures.append({"row": list(row[:-1]), "error": err})
    result.rows.sort()


def max_regret_vs_theta(
    gammas, theta_grid, symmetric=True, grid=801, tol=None, n_workers=None
) -> SweepResult:
    """Optimal regret metric per (theta, gamma).

    Symmetric sweeps report the maximum regret over beliefs for the pair
    (theta, theta); otherwise the minus arm is a fair coin and the metric
    is the regret at beta = 0.
    """
    result = SweepResult("curves", _COLUMNS["curves"])
    jobs = [
        (float(th), float(g), bool(symmetric), int(grid), tol)
        for th in theta_grid
        for g in gammas
    ]
    t0 = time.perf_counter()
    _collect(result, _run_jobs(jobs, _curve_cell, resolve_workers(n_workers)))
    result.meta["elapsed_s"] = round(time.perf_counter() - t0, 3)
    result.meta["symmetric"] = bool(symmetric)
    return result


def regret_scaling_gamma(
    spec: BanditSpec, gammas, beta0=0.0, grid=801, tol=None
) -> SweepResult:
    """Optimal and IDS(0) regret at beta0 for each gamma, plus two-term
    logarithmic fits of both columns when enough rows survive."""
    result = SweepResult("scaling", _COLUMNS["scaling"])
    n = int(grid)
    gobj = BeliefGrid(n)
    t0 = time.perf_counter()
    for g in gammas:
        prob = DiscountedProblem(spec, float(g))
        try:
            vopt = _optimal_solve(prob, gobj, tol)
            r_opt = float(mdp_value(prob, beta0) - vopt(beta0))
            policy = ids_policy_on_grid(prob, gobj, IdsConfig(alpha=0.0, gamma=prob.gamma))
            vids = policy_evaluation(prob, policy, method="direct")
            r_ids = float(mdp_value(prob, beta0) - vids(beta0))
            result.rows.append((1.0 - float(g), r_opt, r_ids))
        except BanditError as exc:
            result.failures.append({"row": [1.0 - float(g)], "error": repr(exc)})
    result.rows.sort()
    result.meta["elapsed_s"] = round(time.perf_counter() - t0, 3)
    if len(result.rows) >= 3:
        for label, col in (("fit_opt", 1), ("fit_ids0", 2)):
            fit = fit_log_regret_expansion(
                [(1.0 - row[0], row[col]) for row in result.rows]
            )
            result.meta[label] = {
                "c1": fit.c1,
                "c2": fit.c2,
                "r_squared": fit.r_squared,
            }
    return result


def delta_R_heatmap(
    theta_minus_grid, theta_plus_grid, gamma, alpha, grid=801, tol=None, n_workers=None
) -> SweepResult:
    """Relative IDS regret gap on the cross product of the theta grids."""
    result = SweepResult("heatmap", _COLUMNS["heatmap"])
    jobs = [
        (float(tm), float(tp), float(gamma), float(alpha), int(grid), tol)
        for tm in theta_minus_grid
        for tp in theta_plus_grid
    ]
    t0 = time.perf_counter()
    _collect(result, _run_jobs(jobs, _heatmap_cell, resolve_workers(n_workers)))
    result.meta["elapsed_s"] = round(time.perf_counter() - t0, 3)
    result.meta["gamma"] = float(gamma)
    result.meta["alpha"] = float(alpha)
    return result


def optimal_alpha_search(
    theta_minus, theta_plus, gamma, alpha_grid, grid=801, tol=None
) -> SweepResult:
    """Relative regret gap per alpha for one spec, with the argmin noted.

    The optimal solve is shared across alphas; the gap curve need not be
    monotone in alpha.
    """
    result = SweepResult("alpha", _COLUMNS["alpha"])
    prob = DiscountedProblem(BanditSpec(float(theta_minus), float(theta_plus)), float(gamma))
    gobj = BeliefGrid(int(grid))
    t0 = time.perf_counter()
    r_opt = regret_curve(prob, _optimal_solve(prob, gobj, tol)).values
    for a in alpha_grid:
        try:
            gap = _max_relative_excess(_ids_regret_nodes(prob, gobj, float(a)), r_opt)
            result.rows.append((float(a), gap))
        except BanditError as exc:
            result.failures.append({"row": [float(a)], "error": repr(exc)})
    result.rows.sort()
    result.meta["elapsed_s"] = round(time.perf_counter() - t0, 3)
    if result.rows:
        best = min(result.rows, key=lambda r: (r[1], r[0]))
        result.meta["alpha_star"] = best[0]
    return result


def run_manifest(manifest: SweepManifest, n_workers=None) -> dict:
    """Dispatch a manifest, write its CSV and JSON artifacts, and return
    {"csv": path, "json": path, "result": SweepResult}."""
    manifest.validate()
    workers = resolve_workers(n_workers)
    if manifest.kind == "curves":
        result = max_regret_vs_theta(
            manifest.gammas,
            manifest.theta_plus,
            symmetric=manifest.symmetric,
            grid=manifest.grid,
            tol=manifest.tol,
            n_workers=workers,
        )
    elif manifest.kind == "scaling":
        result = regret_scaling_gamma(
            BanditSpec(manifest.theta_minus[0], manifest.theta_plus[0]),
            manifest.gammas,
            beta0=manifest.beta0,
            grid=manifest.grid,
            tol=manifest.tol,
        )
    elif manifest.kind == "heatmap":
        result = delta_R_heatmap(
            manifest.theta_minus,
            manifest.theta_plus,
            manifest.gammas[0],
            manifest.alphas[0],
            grid=manifest.grid,
            tol=manifest.tol,
            n_workers=workers,
        )
    else:
        result = optimal_alpha_search(
            manifest.theta_minus[0],
            manifest.theta_plus[0],
            manifest.gammas[0],
            manifest.alphas,
            grid=manifest.grid,
            tol=manifest.tol,
        )
    os.makedirs(manifest.out_dir, exist_ok=True)
    stem = f"{manifest.kind}_{manifest.digest()}"
    csv_path = os.path.join(manifest.out_dir, stem + ".csv")
    json_path = os.path.join(manifest.out_dir, stem + ".json")
    artio.write_rows_csv(csv_path, result.columns, result.rows)
    artio.write_json_doc(
        json_path,
        {
            "manifest": manifest.canonical(),
            "digest": manifest.digest(),
            "columns": list(result.columns),
            "row_count": len(result.rows),
            "failures": result.failures,
            "meta": result.meta,
            "workers": workers,
            "csv": os.path.basename(csv_path),
        },
    )
    return {"csv": csv_path, "json": json_path, "result": result}
