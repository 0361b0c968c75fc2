"""Traced run of one `artifact` CLI command, and the layer metrics of it.

Run as a script, it imports `artifact.cli`, wraps the public functions of
the bandit, solver, ids, experiments and io modules (plus every artifact
function that cli and experiments import by name) in spans, calls
`artifact.cli.main` with the given arguments, and writes the spans as
JSON when the command ends:

    python3 benchmarks/tracer.py SPANS.json solve --theta-minus 0.7 ...

Spans live in memory while the command runs.  Each records its name
(`<module>.<function>`), start, end, parent span and, where the function
returns one, a count (sweeps, rounds, rows).  The system size and LU fill
of every evaluated policy are computed after the command has returned,
outside all spans.

`layer_metrics` turns the spans into the benchmark's per-layer metrics.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
from time import perf_counter

LAYERS = ("bandit", "solver", "ids", "experiments", "io")
IMPORTERS = ("cli", "experiments")
# io.fmt formats a single number and runs once per CSV cell; a span per
# call would cost more than the writes it measures.
UNWRAPPED = {"artifact.io.fmt"}
SWEEP_KINDS = (
    "max_regret_vs_theta",
    "regret_scaling_gamma",
    "delta_R_heatmap",
    "optimal_alpha_search",
)


class Tracer:
    """The spans of one command, kept in memory, and the policies it
    evaluated."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.evaluated = []

    def span(self, name, fn):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = {
                "name": name,
                "parent": self.stack[-1] if self.stack else -1,
                "start": perf_counter(),
                "end": None,
            }
            self.stack.append(len(self.spans))
            self.spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec["end"] = perf_counter()
                self.stack.pop()
            self._observe(name, signature.bind(*args, **kwargs).arguments, result, rec)
            return result

        return traced

    def _observe(self, name, arguments, result, rec):
        layer, func = name.split(".", 1)
        if name == "solver.value_iteration":
            rec["count"] = int(result[1])
        elif name == "solver.policy_iteration":
            rec["count"] = int(result[2])
        elif name == "solver.policy_evaluation":
            self.evaluated.append((arguments["prob"], arguments["policy"]))
        elif layer == "experiments" and func in SWEEP_KINDS:
            rec["count"] = len(result.rows) + len(result.failures)
        elif layer == "io" and func.startswith("write_") and func.endswith("_csv"):
            # CSVs only: the sweep sidecar JSON carries a timing, so its
            # length varies from run to run
            rec["path"] = os.path.abspath(arguments["path"])


def _targets(modules):
    """Functions to wrap, keyed by identity, with their span names."""
    found = {}
    for mod_name in LAYERS:
        mod = modules[mod_name]
        for attr in getattr(mod, "__all__", ()):
            fn = getattr(mod, attr)
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                found[fn] = f"{mod_name}.{attr}"
    for mod_name in IMPORTERS:
        mod = modules[mod_name]
        for fn in vars(mod).values():
            if (
                inspect.isfunction(fn)
                and fn.__module__.startswith("artifact.")
                and fn.__module__ != mod.__name__
            ):
                found[fn] = f"{fn.__module__.rsplit('.', 1)[1]}.{fn.__name__}"
    return {
        fn: name for fn, name in found.items()
        if f"{fn.__module__}.{fn.__name__}" not in UNWRAPPED
    }


def install(tracer):
    """Rebind every wrapped function in every loaded artifact module, so
    calls between modules go through the spans."""
    import artifact.cli  # noqa: F401  (loads every module the CLI uses)

    modules = {
        name.rsplit(".", 1)[1]: mod
        for name, mod in sys.modules.items()
        if name.startswith("artifact.")
    }
    wrapped = {fn: tracer.span(name, fn) for fn, name in _targets(modules).items()}
    for mod in list(modules.values()) + [sys.modules["artifact"]]:
        for attr, val in list(vars(mod).items()):
            if inspect.isfunction(val) and val in wrapped:
                setattr(mod, attr, wrapped[val])
    return modules


def system_counts(evaluated, policy_transition):
    """nnz of I - gamma*M and of its sparse LU factors (COLAMD, as
    scipy's spsolve orders them), summed over the evaluated policies."""
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    system = lu = 0
    for prob, policy in evaluated:
        m = policy_transition(prob, policy)
        a = (sp.identity(m.shape[0], format="csr") - prob.gamma * m).tocsc()
        f = spla.splu(a, permc_spec="COLAMD")
        system += a.nnz
        lu += f.L.nnz + f.U.nnz
    return system, lu


def main(argv):
    out_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    modules = install(tracer)
    policy_transition = modules["solver"].policy_transition.__wrapped__
    code = tracer.span("cli.main", modules["cli"].main)(cli_args)
    t_post = perf_counter()
    system, lu = system_counts(tracer.evaluated, policy_transition)
    paths = {s["path"] for s in tracer.spans if "path" in s}
    doc = {
        "exit_code": code,
        "post_s": perf_counter() - t_post,
        "spans": tracer.spans,
        "system_nnz": system,
        "lu_nnz": lu,
        "io_bytes": sum(os.path.getsize(p) for p in paths if os.path.exists(p)),
    }
    with open(out_path, "w") as fh:
        json.dump(doc, fh)
    return code


# ------------------------------------------------------------ derivation


def _duration(s):
    return s["end"] - s["start"]


def layer_metrics(doc):
    """Per-layer metrics of one traced command (import metrics aside)."""
    spans = doc["spans"]

    def total(name):
        return sum(_duration(s) for s in spans if s["name"] == name)

    def count(name):
        return sum(s.get("count", 0) for s in spans if s["name"] == name)

    root = next(i for i, s in enumerate(spans) if s["name"] == "cli.main")
    children = [s for s in spans if s["parent"] == root]
    vi_s, sweeps = total("solver.value_iteration"), count("solver.value_iteration")
    sweep_spans = [s for s in spans if s["name"].split(".", 1)[1] in SWEEP_KINDS]
    rows = sum(s.get("count", 0) for s in sweep_spans)
    io_top = [
        s for s in spans
        if s["name"].startswith("io.")
        and not (s["parent"] >= 0 and spans[s["parent"]]["name"].startswith("io."))
    ]
    return {
        "solver.value_iteration_s": vi_s,
        "solver.vi_sweeps": sweeps,
        "solver.sweep_us": vi_s / sweeps * 1e6 if sweeps else 0.0,
        "solver.policy_evaluation_s": total("solver.policy_evaluation"),
        "solver.system_nnz": doc["system_nnz"],
        "solver.lu_nnz": doc["lu_nnz"],
        "solver.policy_iteration_s": total("solver.policy_iteration"),
        "solver.pi_rounds": count("solver.policy_iteration"),
        "ids.select_s": total("ids.ids_policy_on_grid"),
        "ids.sup_ratio_s": total("ids.sup_info_ratio"),
        "ids.regret_bound_s": total("ids.regret_bound"),
        "experiments.run_manifest_s": total("experiments.run_manifest"),
        "experiments.row_ms": (
            sum(_duration(s) for s in sweep_spans) / rows * 1e3 if rows else 0.0
        ),
        "io.write_s": sum(_duration(s) for s in io_top),
        "io.bytes": doc["io_bytes"],
        "cli.self_s": _duration(spans[root]) - sum(_duration(s) for s in children),
    }


def coverage(doc, process_wall_s):
    """Shares of the traced command's wall time (the process minus the
    counting done after the command returned) spent inside cli.main and
    inside the layer spans directly under it."""
    spans = doc["spans"]
    root = next(i for i, s in enumerate(spans) if s["name"] == "cli.main")
    layer = sum(_duration(s) for s in spans if s["parent"] == root)
    command_wall = process_wall_s - doc["post_s"]
    return {
        "command_wall_s": command_wall,
        "main_share": _duration(spans[root]) / command_wall,
        "layer_share": layer / command_wall,
    }


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
