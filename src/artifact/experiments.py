"""Parameter sweeps over the belief problem, emitting tabular artifacts.

Four sweep kinds are supported: regret-versus-theta curves, regret
scaling as gamma approaches one, relative-regret heatmaps over arm
parameters, and a search over the ratio exponent alpha.  Sweeps are
described by a JSON manifest.  Every kind runs its rows through one
path, `_sweep`: a row is its key followed by what the kind's cell
returns, rows are independent jobs that a process pool may run
concurrently, and the pipeline contains no randomness, so identical
manifests produce byte-identical CSV files whatever the worker count.
Each worker runs its rows in chunks, and a chunk solves its rows' IDS
policy evaluations as one lockstep BiCGSTAB solve, which leaves every
row's iterates as a solve of its own would.  A row whose cell raises a
solver error is recorded as a failure rather than aborting the sweep.
"""

from __future__ import annotations

import json
import numbers
import os
import time
from dataclasses import dataclass, field, fields
from functools import lru_cache

import numpy as np

from . import analytic
from . import io as artio
from .bandit import BanditSpec, _check_beta
from .errors import BanditError, InvalidManifest
from .ids import IdsConfig, ids_policy_on_grid
from .solver import (
    BeliefGrid,
    DiscountedProblem,
    _certified_solves,
    _policy_equation,
    _resolve_tol,
    certify_optimal,
    mdp_value,
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

# each kind's CSV columns, and how many values each list it reads takes
_ONE, _SOME = "exactly one value", "at least one value"
_KINDS = {
    "curves": (("theta", "gamma", "max_regret"), {"theta_plus": _SOME, "gammas": _SOME}),
    "scaling": (("one_minus_gamma", "regret_opt", "regret_ids0"),
                {"theta_minus": _ONE, "theta_plus": _ONE, "gammas": _SOME}),
    "heatmap": (("theta_minus", "theta_plus", "delta_R"),
                {"theta_minus": _SOME, "theta_plus": _SOME, "gammas": _ONE, "alphas": _ONE}),
    "alpha": (("alpha", "delta_R"),
              {"theta_minus": _ONE, "theta_plus": _ONE, "gammas": _ONE, "alphas": _SOME}),
}

# a chunk stacks at most this many grid nodes in its lockstep solve: 8
# rows at N 801, one from N 3,251 up.  At N 801 a stencil product costs
# about 14 us, mostly numpy's per-call overhead, which a chunk pays once
# for all its rows; 6 to 12 rows at N 801 measured alike.
_CHUNK_NODES = 6500


def _number(key, x):
    # float(True) is 1.0 and float("0.7") parses, so a numeric field
    # takes only a JSON number
    if isinstance(x, bool) or not isinstance(x, numbers.Real):
        raise InvalidManifest(f"malformed manifest field {key}: {x!r} is not a number")
    try:
        return float(x)
    except OverflowError:
        # a JSON integer has no size limit
        raise InvalidManifest(
            f"malformed manifest field {key}: an integer beyond the float range"
        ) from None


def _json_type(json_type, name):
    # int() would truncate 801.9, bool("false") is True and str(None) is
    # "None", so these fields take only their own JSON type
    def read(key, x):
        if not isinstance(x, json_type) or isinstance(x, bool) and json_type is not bool:
            raise InvalidManifest(f"malformed manifest field {key}: {x!r} is not {name}")
        return x
    return read


# how from_dict reads a field, by the field's annotation; a list is an
# array or one number, its singleton, since a string or an object would
# otherwise iterate by character or by key
_READERS = {
    "str": _json_type(str, "a string"),
    "int": _json_type(numbers.Integral, "an integer"),
    "bool": _json_type(bool, "true or false"),
    "float": _number,
    "float | None": lambda key, x: None if x is None else _number(key, x),
    "tuple": lambda key, x: (tuple(_number(key, v) for v in x) if isinstance(x, (list, tuple))
                             else (_number(key, x),)),
}


@dataclass(frozen=True)
class SweepManifest:
    """Declarative description of one sweep.

    `_KINDS` gives the lists each kind reads and how many values each
    takes; curves uses theta_plus as its theta axis together with the
    symmetric flag, and the heatmap crosses the two theta grids.  A field
    missing from the JSON object takes its default here, and a missing
    kind fails `validate`.
    """

    kind: str = ""
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
        m = cls(**{f.name: _READERS[f.type](f.name, raw[f.name])
                   for f in fields(cls) if f.name in raw})
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
                f"kind must be one of {tuple(_KINDS)}, got {self.kind!r}"
            )
        # each value's domain rule is the library type's that owns it
        for name, rule, values in (
            ("theta_minus", lambda v: BanditSpec(v, 0.5), self.theta_minus),
            ("theta_plus", lambda v: BanditSpec(0.5, v), self.theta_plus),
            ("gammas", lambda v: DiscountedProblem(BanditSpec(0.5, 0.5), v), self.gammas),
            ("alphas", lambda v: IdsConfig(alpha=v, gamma=0.0), self.alphas),
            ("grid", BeliefGrid, (self.grid,)),
            ("tol", lambda v: _resolve_tol(0.0, v), (self.tol,)),
            ("beta0", _check_beta, (self.beta0,)),
        ):
            try:
                for v in values:
                    rule(v)
            except ValueError as exc:
                raise InvalidManifest(f"manifest field {name}: {exc}") from None
        for name, takes in _KINDS[self.kind][1].items():
            n = len(getattr(self, name))
            if n == 0 or n > 1 and takes is _ONE:
                raise InvalidManifest(f"manifest field {name}: {self.kind} takes {takes}, got {n}")
        if self.kind == "heatmap":
            for name in ("theta_minus", "theta_plus"):
                for v in getattr(self, name):
                    if not 0.5 < v < 1.0:
                        raise InvalidManifest(
                            f"heatmap {name} value {v} outside (0.5, 1)"
                        )

    def canonical(self) -> dict:
        """Parameter content only; the output directory does not change
        what is computed, so it stays out of the digest."""
        doc = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "out_dir"}
        return {k: list(v) if isinstance(v, tuple) else v for k, v in doc.items()}

    def digest(self) -> str:
        import hashlib  # only a sweep's file name needs it, not start-up

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


@lru_cache(maxsize=1)
def _optimal_solve(prob, grid, tol):
    """Optimal value on the grid by policy iteration, certified by one
    Bellman backup; raises IterationLimit when the certified error exceeds
    tol (default default_tolerance(gamma)).  The value of the last (prob,
    grid, tol) is kept read-only, so the rows of an alpha sweep share one
    solve; a failure is not kept, so every row meets it again."""
    v, _, _ = policy_iteration(prob, grid)
    certify_optimal(prob, v, tol)
    v.values.flags.writeable = False
    return v


def _curve_cell(theta, gamma, symmetric, n, tol):
    prob = DiscountedProblem(BanditSpec(theta if symmetric else 0.5, theta), gamma)
    r = regret_curve(prob, _optimal_solve(prob, BeliefGrid(n), tol)).values
    return (float(np.max(r)) if symmetric else float(r[(n - 1) // 2]),)


def _ids_values(prob, alpha, n, tol):
    """The optimal value on n nodes, and IDS(alpha)'s warm-started from
    it.  A generator: it yields the arguments (prob, policy, x0) of the
    IDS policy evaluation and receives its value, so that a chunk solves
    the evaluations of all its rows at once (_run_chunk)."""
    vopt = _optimal_solve(prob, BeliefGrid(n), tol)
    policy = ids_policy_on_grid(prob, vopt.grid, IdsConfig(alpha=alpha, gamma=prob.gamma))
    vids = yield prob, policy, vopt
    return vopt, vids


def _scaling_cell(spec, gamma, beta0, n, tol):
    """Optimal and IDS(0) regret at beta0."""
    prob = DiscountedProblem(spec, gamma)
    vopt, vids = yield from _ids_values(prob, 0.0, n, tol)
    v_mdp = mdp_value(prob, beta0)
    return float(v_mdp - vopt(beta0)), float(v_mdp - vids(beta0))


def _gap_cell(tm, tp, gamma, alpha, n, tol):
    """Max relative excess of the IDS(alpha) regret over the optimal
    regret, taken over beliefs whose optimal regret clears the floor."""
    prob = DiscountedProblem(BanditSpec(tm, tp), gamma)
    vopt, vids = yield from _ids_values(prob, alpha, n, tol)
    r_opt = regret_curve(prob, vopt).values
    r_ids = regret_curve(prob, vids).values
    mask = r_opt > max(1e-6, 1e-4 * float(np.max(r_opt)))
    if not np.any(mask):
        return (0.0,)
    return (float(np.max((r_ids[mask] - r_opt[mask]) / r_opt[mask])),)


def _failure(key, exc):
    return {"row": list(key), "error": repr(exc)}


def _run_chunk(jobs):
    """The rows of a chunk of (cell, key, args) jobs, in job order: a row
    is its key followed by what its cell returns, or a failure record of
    the key when the cell raises a BanditError.

    A cell returns its values, or is a generator (_ids_values) that
    yields one policy evaluation and returns its values once it is sent
    the value.  The chunk first runs every cell up to its evaluation, then
    solves the evaluations in lockstep (solver._certified_solves), then
    sends each value, or throws in the IterationLimit that
    policy_evaluation would have raised."""
    rows, waiting, equations = [], [], []
    for cell, key, args in jobs:
        try:
            out = cell(*args)
            if isinstance(out, tuple):
                rows.append(key + out)
                continue
            equations.append(_policy_equation(*next(out)))
            waiting.append((len(rows), key, out))
            rows.append(None)
        except BanditError as exc:
            rows.append(_failure(key, exc))
    values = _certified_solves(equations, None, "policy evaluation") if equations else []
    for (i, key, gen), value in zip(waiting, values):
        try:
            if isinstance(value, BanditError):
                gen.throw(value)
            gen.send(value)
        except StopIteration as stop:
            rows[i] = key + stop.value
        except BanditError as exc:
            rows[i] = _failure(key, exc)
    return rows


def _run_jobs(jobs, worker, n_workers):
    if n_workers <= 1 or len(jobs) <= 1:
        return [worker(j) for j in jobs]
    # imported here so that serial runs never load multiprocessing; the
    # pool starts all its workers at the first submit, however few jobs
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=min(n_workers, len(jobs))) as pool:
        return list(pool.map(worker, jobs, chunksize=1))


def _sweep(kind, cell, jobs, n_workers, n, **meta):
    """Run the (key, args) jobs of one sweep kind on n nodes through
    `cell`, keep the rows sorted and the failures in job order, and time
    them.  The jobs run in chunks (_run_chunk) of as many rows as fit in
    _CHUNK_NODES stacked nodes, at least one and at most a worker's
    share, so that every worker has a chunk."""
    result = SweepResult(kind, _KINDS[kind][0])
    t0 = time.perf_counter()
    workers = resolve_workers(n_workers)
    size = max(1, min(_CHUNK_NODES // n, -(-len(jobs) // workers)))
    chunks = [
        [(cell, key, args) for key, args in jobs[i:i + size]]
        for i in range(0, len(jobs), size)
    ]
    for rows in _run_jobs(chunks, _run_chunk, workers):
        for out in rows:
            (result.failures if isinstance(out, dict) else result.rows).append(out)
    result.rows.sort()
    result.meta["elapsed_s"] = round(time.perf_counter() - t0, 3)
    result.meta.update(meta)
    return result


def max_regret_vs_theta(
    gammas, theta_grid, symmetric=True, grid=801, tol=None, n_workers=None
) -> SweepResult:
    """Optimal regret metric per (theta, gamma).

    Symmetric sweeps report the maximum regret over beliefs for the pair
    (theta, theta); otherwise the minus arm is a fair coin and the metric
    is the regret at beta = 0.
    """
    jobs = [
        ((th, g), (th, g, bool(symmetric), int(grid), tol))
        for th in map(float, theta_grid)
        for g in map(float, gammas)
    ]
    return _sweep("curves", _curve_cell, jobs, n_workers, int(grid), symmetric=bool(symmetric))


def regret_scaling_gamma(
    spec: BanditSpec, gammas, beta0=0.0, grid=801, tol=None, n_workers=None
) -> SweepResult:
    """Optimal and IDS(0) regret at beta0 for each gamma, plus two-term
    logarithmic fits of both columns when the rows that survive hold at
    least three distinct gammas."""
    jobs = [((1.0 - g,), (spec, g, beta0, int(grid), tol)) for g in map(float, gammas)]
    result = _sweep("scaling", _scaling_cell, jobs, n_workers, int(grid))
    if len({row[0] for row in result.rows}) >= 3:
        for label, col in (("fit_opt", 1), ("fit_ids0", 2)):
            fit = analytic.fit_log_regret_expansion(
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
    gamma, alpha = float(gamma), float(alpha)
    jobs = [
        ((tm, tp), (tm, tp, gamma, alpha, int(grid), tol))
        for tm in map(float, theta_minus_grid)
        for tp in map(float, theta_plus_grid)
    ]
    return _sweep("heatmap", _gap_cell, jobs, n_workers, int(grid), gamma=gamma, alpha=alpha)


def optimal_alpha_search(
    theta_minus, theta_plus, gamma, alpha_grid, grid=801, tol=None, n_workers=None
) -> SweepResult:
    """Relative regret gap per alpha for one spec, with the argmin noted.

    Each row is a heatmap cell at its alpha.  The rows share one optimal
    solve per process, and every IDS evaluation is warm-started from it,
    so no row depends on the order of the alphas or on the worker count;
    the gap curve need not be monotone in alpha.
    """
    tm, tp, gamma = float(theta_minus), float(theta_plus), float(gamma)
    jobs = [((a,), (tm, tp, gamma, a, int(grid), tol)) for a in map(float, alpha_grid)]
    result = _sweep("alpha", _gap_cell, jobs, n_workers, int(grid))
    if result.rows:
        best = min(result.rows, key=lambda r: (r[1], r[0]))
        result.meta["alpha_star"] = best[0]
    return result


def run_manifest(manifest: SweepManifest, n_workers=None) -> dict:
    """Dispatch a manifest, write its CSV and JSON artifacts, and return
    {"csv": path, "json": path, "result": SweepResult}."""
    manifest.validate()
    # an unusable out_dir fails here, before any row is computed
    os.makedirs(manifest.out_dir, exist_ok=True)
    workers = resolve_workers(n_workers)
    settings = {"grid": manifest.grid, "tol": manifest.tol, "n_workers": workers}
    if manifest.kind == "curves":
        result = max_regret_vs_theta(
            manifest.gammas,
            manifest.theta_plus,
            symmetric=manifest.symmetric,
            **settings,
        )
    elif manifest.kind == "scaling":
        result = regret_scaling_gamma(
            BanditSpec(manifest.theta_minus[0], manifest.theta_plus[0]),
            manifest.gammas,
            beta0=manifest.beta0,
            **settings,
        )
    elif manifest.kind == "heatmap":
        result = delta_R_heatmap(
            manifest.theta_minus,
            manifest.theta_plus,
            manifest.gammas[0],
            manifest.alphas[0],
            **settings,
        )
    else:
        result = optimal_alpha_search(
            manifest.theta_minus[0],
            manifest.theta_plus[0],
            manifest.gammas[0],
            manifest.alphas,
            **settings,
        )
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
