"""Parameter sweeps over the belief problem, emitting tabular artifacts.

Four sweep kinds: regret-versus-theta curves, regret scaling as gamma
approaches one, relative-regret heatmaps over arm parameters, and a
search over the ratio exponent alpha.  A kind is one `_KINDS` row, and
a JSON manifest names it.  Every kind runs its rows through one
path, `_sweep`: a job is plain data (key, prob, alpha, extra), rows are
independent jobs that a process pool may run concurrently, and the
pipeline contains no randomness, so identical manifests produce
byte-identical CSV files whatever the worker count.  Each worker runs
its rows in chunks of three phases: every row's optimal value, from the
one owner solver._optimal_solve, and IDS policy; one lockstep BiCGSTAB
evaluation of the chunk's IDS policies, which leaves every row's
iterates as a solve of its own would; then every row from the regret
curves of its values, by its kind's row function.  A failed solve is
recorded as its row's failure rather than aborting the sweep.
"""

from __future__ import annotations

import json
import numbers
import os
import time
from dataclasses import dataclass, field, fields

import numpy as np

from . import analytic
from . import io as artio
from .bandit import BanditSpec, _check_beta
from .errors import BanditError, InvalidManifest
from .ids import IdsConfig, _check_alpha, ids_policy_on_grid
from .solver import (
    BeliefGrid,
    DiscountedProblem,
    _certified_solves,
    _optimal_solve,
    _policy_equation,
    _resolve_tol,
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

# each sweep kind, declared once: its CSV columns, how many values each
# list it reads takes, its run from a manifest with the settings grid, tol
# and n_workers, and the meta keys `artifact sweep` prints.  A run looks its
# sweep function up when called, so a rebound module name is the one run.
_ONE, _SOME = "exactly one value", "at least one value"
_KINDS = {
    "curves": (("theta", "gamma", "max_regret"), {"theta_plus": _SOME, "gammas": _SOME},
               lambda m, **s: max_regret_vs_theta(m.gammas, m.theta_plus, m.symmetric, **s), ()),
    "scaling": (("one_minus_gamma", "regret_opt", "regret_ids0"),
                {"theta_minus": _ONE, "theta_plus": _ONE, "gammas": _SOME},
                lambda m, **s: regret_scaling_gamma(
                    BanditSpec(m.theta_minus[0], m.theta_plus[0]), m.gammas, m.beta0, **s),
                ("fit_opt", "fit_ids0")),
    "heatmap": (("theta_minus", "theta_plus", "delta_R"),
                {"theta_minus": _SOME, "theta_plus": _SOME, "gammas": _ONE, "alphas": _ONE},
                lambda m, **s: delta_R_heatmap(
                    m.theta_minus, m.theta_plus, m.gammas[0], m.alphas[0], **s), ()),
    "alpha": (("alpha", "delta_R"),
              {"theta_minus": _ONE, "theta_plus": _ONE, "gammas": _ONE, "alphas": _SOME},
              lambda m, **s: optimal_alpha_search(
                  m.theta_minus[0], m.theta_plus[0], m.gammas[0], m.alphas, **s),
              ("alpha_star",)),
}

# a chunk stacks at most this many grid nodes in its lockstep solve: 8
# rows at N 801, one from N 3,251 up.  At N 801 a stencil product costs
# about 14 us, mostly numpy's per-call overhead, which a chunk pays once
# for all its rows; 6 to 12 rows at N 801 measured alike.
_CHUNK_NODES = 6500


def _number(key, x):
    try:
        return float(_json_type(numbers.Real, "a number")(key, x))
    except OverflowError:
        # a JSON integer has no size limit
        raise InvalidManifest(
            f"malformed manifest field {key}: an integer beyond the float range"
        ) from None


def _json_type(json_type, name):
    # int() would truncate 801.9, float(True) is 1.0, bool("false") is True
    # and str(None) is "None", so these fields take only their own JSON type
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
    missing from the JSON object takes its default here.  Construction
    runs `validate`, so a missing kind fails construction.
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

    def __post_init__(self):
        self.validate()

    @classmethod
    def from_dict(cls, raw: dict) -> "SweepManifest":
        if not isinstance(raw, dict):
            raise InvalidManifest("manifest must be a JSON object")
        unknown = set(raw) - {f.name for f in fields(cls)}
        if unknown:
            raise InvalidManifest(f"unknown manifest fields: {sorted(unknown)}")
        return cls(**{f.name: _READERS[f.type](f.name, raw[f.name])
                      for f in fields(cls) if f.name in raw})

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
        # each value's domain rule is that of the library code that owns it
        for name, rule, values in (
            ("theta_minus", lambda v: BanditSpec(v, 0.5), self.theta_minus),
            ("theta_plus", lambda v: BanditSpec(0.5, v), self.theta_plus),
            ("gammas", lambda v: DiscountedProblem(BanditSpec(0.5, 0.5), v), self.gammas),
            ("alphas", _check_alpha, self.alphas),
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


def _curve_row(r_opt, symmetric):
    """The maximum optimal regret, or the regret at beta = 0."""
    return (float(np.max(r_opt.values)) if symmetric else r_opt(0.0),)


def _scaling_row(r_opt, r_ids, beta0):
    """Optimal and IDS(0) regret at beta0."""
    return r_opt(beta0), r_ids(beta0)


def _gap_row(r_opt, r_ids):
    """Max relative excess of the IDS(alpha) regret over the optimal
    regret, taken over beliefs whose optimal regret clears the floor."""
    r_opt, r_ids = r_opt.values, r_ids.values
    mask = r_opt > max(1e-6, 1e-4 * float(np.max(r_opt)))
    if not np.any(mask):
        return (0.0,)
    return (float(np.max((r_ids[mask] - r_opt[mask]) / r_opt[mask])),)


def _failure(key, exc):
    return {"row": list(key), "error": repr(exc)}


def _run_chunk(chunk):
    """The rows, in job order, of a chunk (row, n, tol, jobs) of (key,
    prob, alpha, extra) jobs on n nodes, in three phases: each job's
    solver._optimal_solve value and, unless alpha is None, its IDS(alpha)
    policy; one lockstep evaluation of those policies
    (solver._certified_solves), warm-started from the optimal values; then
    each row, the key followed by row(r_opt, *extra), or row(r_opt, r_ids,
    *extra) with an alpha, where each r is the regret_curve of a value.  A
    BanditError of the first phase, or the IterationLimit of a missed
    evaluation, becomes its row's failure record."""
    row, n, tol, jobs = chunk
    grid = BeliefGrid(n)
    solved, equations = [], []
    for key, prob, alpha, _ in jobs:
        try:
            vopt = _optimal_solve(prob, grid, tol)[0]
            if alpha is not None:
                policy = ids_policy_on_grid(prob, grid, IdsConfig(alpha=alpha, gamma=prob.gamma))
                equations.append(_policy_equation(prob, policy, vopt))
            solved.append(vopt)
        except BanditError as exc:
            solved.append(exc)
    values = iter(_certified_solves(equations, None, "policy evaluation"))
    rows = []
    for (key, prob, alpha, extra), vopt in zip(jobs, solved):
        args = [vopt] if alpha is None or isinstance(vopt, BanditError) else [vopt, next(values)]
        failed = next((a for a in args if isinstance(a, BanditError)), None)
        rows.append(key + row(*(regret_curve(prob, v) for v in args), *extra)
                    if failed is None else _failure(key, failed))
    return rows


def _run_jobs(jobs, worker, n_workers):
    if n_workers <= 1 or len(jobs) <= 1:
        return [worker(j) for j in jobs]
    # imported here so that serial runs never load multiprocessing; the
    # pool starts all its workers at the first submit, however few jobs
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=min(n_workers, len(jobs))) as pool:
        return list(pool.map(worker, jobs, chunksize=1))


def _sweep(kind, row, jobs, n_workers, n, tol, **meta):
    """Run the (key, prob, alpha, extra) jobs of one sweep kind on n
    nodes, building each row with `row`, keep the rows sorted and the
    failures in job order, and time them.  The jobs run in chunks
    (_run_chunk: optimal solves, one lockstep IDS evaluation, then rows)
    of as many rows as fit in _CHUNK_NODES stacked nodes, at least one
    and at most a worker's share, so that every worker has a chunk."""
    result = SweepResult(kind, _KINDS[kind][0])
    t0 = time.perf_counter()
    workers = resolve_workers(n_workers)
    size = max(1, min(_CHUNK_NODES // n, -(-len(jobs) // workers)))
    chunks = [(row, n, tol, jobs[i:i + size]) for i in range(0, len(jobs), size)]
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
    symmetric = bool(symmetric)
    jobs = [
        ((th, g), DiscountedProblem(BanditSpec(th if symmetric else 0.5, th), g), None,
         (symmetric,))
        for th in map(float, theta_grid)
        for g in map(float, gammas)
    ]
    return _sweep("curves", _curve_row, jobs, n_workers, int(grid), tol, symmetric=symmetric)


def regret_scaling_gamma(
    spec: BanditSpec, gammas, beta0=0.0, grid=801, tol=None, n_workers=None
) -> SweepResult:
    """Optimal and IDS(0) regret at beta0 for each gamma, plus two-term
    logarithmic fits of both columns when the rows that survive hold at
    least three distinct gammas."""
    beta0 = _check_beta(beta0)
    jobs = [((1.0 - g,), DiscountedProblem(spec, g), 0.0, (beta0,)) for g in map(float, gammas)]
    result = _sweep("scaling", _scaling_row, jobs, n_workers, int(grid), tol)
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
    gamma, alpha = float(gamma), _check_alpha(float(alpha))
    jobs = [
        ((tm, tp), DiscountedProblem(BanditSpec(tm, tp), gamma), alpha, ())
        for tm in map(float, theta_minus_grid)
        for tp in map(float, theta_plus_grid)
    ]
    return _sweep("heatmap", _gap_row, jobs, n_workers, int(grid), tol, gamma=gamma, alpha=alpha)


def optimal_alpha_search(
    theta_minus, theta_plus, gamma, alpha_grid, grid=801, tol=None, n_workers=None
) -> SweepResult:
    """Relative regret gap per alpha for one spec, with the argmin noted.

    Each row is a heatmap cell at its alpha.  The rows share one optimal
    solve per process, and every IDS evaluation is warm-started from it,
    so no row depends on the order of the alphas or on the worker count;
    the gap curve need not be monotone in alpha.
    """
    prob = DiscountedProblem(BanditSpec(float(theta_minus), float(theta_plus)), float(gamma))
    jobs = [((a,), prob, _check_alpha(a), ()) for a in map(float, alpha_grid)]
    result = _sweep("alpha", _gap_row, jobs, n_workers, int(grid), tol)
    if result.rows:
        best = min(result.rows, key=lambda r: (r[1], r[0]))
        result.meta["alpha_star"] = best[0]
    return result


def run_manifest(manifest: SweepManifest, n_workers=None) -> dict:
    """Dispatch a manifest, checked when it was built, write its CSV and
    JSON artifacts and return {"csv": path, "json": path, "result": SweepResult}."""
    # an unusable out_dir fails here, before any row is computed
    os.makedirs(manifest.out_dir, exist_ok=True)
    workers = resolve_workers(n_workers)
    settings = {"grid": manifest.grid, "tol": manifest.tol, "n_workers": workers}
    result = _KINDS[manifest.kind][2](manifest, **settings)
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
