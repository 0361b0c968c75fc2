"""Benchmark of the `artifact` CLI on three workloads.

    python3 benchmarks/run.py --workload long-horizon --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout; the program is imported from the
checkout's `src/`.  Every child runs single-threaded and alone, on the
same CPU as this process.  With `--trace 0` the run measures the
end-to-end metrics: `setup_s` (mean wall time of a fresh
`import artifact.cli`), the mean `wall_s` and the median `peak_rss_mb` of
the workload's command, repeated within `--seconds` seconds (at least
twice).  Both times are scaled to a reference machine speed by a fixed
calibration kernel timed next to the children (`calibration_s`).  With
`--trace 1` it measures the per-layer metrics from traced commands
(`tracer.py`) and `python -X importtime`.

Both modes check every command's outputs against references computed in
`checks.py` and require repeated commands to write byte-identical CSVs.
The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`; the full record, with machine and
library versions, goes to `benchmarks/results/`.

The program draws no random numbers and each workload's inputs are
fixed, so `--seed` is recorded but selects nothing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

SINGLE_THREAD = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "ARTIFACT_WORKERS": "1",
}
os.environ.update(SINGLE_THREAD)  # before numpy loads, for this process too

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracer  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {
    mode: {m["name"]: m["unit"] for m in DECLARED[key]}
    for mode, key in ((0, "end_to_end"), (1, "per_layer"))
}

SETUP_IMPORTS = 5
# The calibration kernel's time at the reference speed; the kernel took
# about this long on the 2-CPU Xeon VM the bounds were set on.
REFERENCE_CAL_S = 0.2
CAL_NODES = 2001
CAL_SWEEPS = 8000
CAL_SHARE = 0.1
IMPORTTIME_RUNS = 3
MIN_TIMED_ROUNDS = 2
IMPORT_NAMES = {
    "cli.import_s": "artifact.cli",
    "bandit.import_s": "artifact.bandit",
    "solver.import_s": "artifact.solver",
}

ALPHAS = [0.0, 0.001, 0.01, 0.05, 0.075] + [round(0.1 + 0.05 * k, 2) for k in range(19)]


class Workload:
    """Fixed CLI inputs, the reference checks of their outputs, and the
    checks expected to fail because of a named fault of the program."""

    def __init__(self, name, subcommand, params, expected_failures):
        self.name = name
        self.subcommand = subcommand
        self.params = params
        self.expected_failures = expected_failures

    def prepare(self, out):
        """Write what the command reads: the sweep's manifest."""
        if self.subcommand == "sweep":
            manifest = dict(self.params, out_dir=str(out))
            (out.parent / "manifest.json").write_text(json.dumps(manifest))

    def cli_args(self, out):
        if self.subcommand == "sweep":
            return ["sweep", str(out.parent / "manifest.json")]
        args = [self.subcommand]
        for key, val in self.params.items():
            args += [f"--{key}", str(val)]
        return args + ["--out", str(out)]

    def command(self, out):
        return [sys.executable, "-m", "artifact.cli", *self.cli_args(out)]

    def traced_command(self, out, spans):
        return [sys.executable, str(BENCH / "tracer.py"), str(spans), *self.cli_args(out)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "long-horizon",
            "solve",
            {"theta-minus": 0.7, "theta-plus": 0.7, "gamma": 0.9999},
            # value iteration stops at 1e-9/(1-gamma), a contraction bound
            # of 0.1 that puts regret(0) at 1.348 against 1.249
            {"closed_form"},
        ),
        Workload(
            "fine-grid",
            "ids",
            {
                "theta-minus": 0.55, "theta-plus": 0.7, "gamma": 0.99,
                "alpha": 0.5, "grid": 20001,
            },
            set(),
        ),
        Workload(
            "alpha-sweep",
            "sweep",
            {
                "kind": "alpha", "theta_minus": [0.55], "theta_plus": [0.7],
                "gammas": [0.99], "alphas": ALPHAS, "grid": 801,
            },
            # d**(1/alpha) under- and overflows in the ternary search
            {"row alpha=0.001", "row alpha=0.01"},
        ),
    )
}


def child_env():
    env = dict(os.environ, **SINGLE_THREAD)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(argv, cwd):
    """Run one child to completion; return wall seconds, its own peak RSS
    in MB (from wait4, not the cumulative RUSAGE_CHILDREN), exit code and
    captured stderr."""
    err_path = cwd / ".stderr"
    with open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=cwd, env=child_env(), stdout=subprocess.DEVNULL, stderr=err
        )
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "exit_code": proc.returncode,
        "stderr": err_path.read_text(errors="replace"),
    }


def csv_digests(out):
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.glob("*.csv"))
    }


# ----------------------------------------------------------------- checks


def _check_solution(w, out, value_file, regret_file, policy_file):
    p = w.params
    tm, tp, g = p["theta-minus"], p["theta-plus"], p["gamma"]
    value = checks.read_columns(out / value_file)
    regret = checks.read_columns(out / regret_file)
    policy = checks.read_columns(out / policy_file)
    nodes = checks.uniform_nodes(value[:, 0])
    result = {
        "regret_nonnegative": checks.check_regret_nonnegative(tm, tp, g, regret[:, 1]),
        "value_plus_regret": checks.check_value_regret(
            tm, tp, g, nodes, value[:, 1], regret[:, 1]
        ),
    }
    if w.subcommand == "solve":
        mid = (len(nodes) - 1) // 2
        result["closed_form"] = checks.check_matched_regret(
            regret[mid, 1], tp, g, len(nodes)
        )
        return result
    q, alpha = policy[:, 1], p["alpha"]
    summary = json.loads((out / "ids_summary.json").read_text())
    result["policy_certificate"] = checks.check_policy_values(tm, tp, g, nodes, value[:, 1], q)
    result["ids_selection"] = checks.check_ids_selection(tm, tp, g, alpha, nodes, q)
    result["ids_ratios"] = checks.check_ids_ratios(
        tm, tp, g, alpha, nodes, q, checks.read_columns(out / "ids_ratios.csv")[:, 6],
        summary["sup_ratio"], summary["bound_at_zero"], summary["regret_at_zero"],
    )
    return result


def _check_sweep(w, out):
    p = w.params
    sidecar = json.loads(next(out.glob("alpha_*.json")).read_text())
    if sidecar["row_count"] != len(p["alphas"]) or sidecar["failures"]:
        raise ValueError(f"sweep wrote {sidecar['row_count']} rows, failures {sidecar['failures']}")
    rows = [tuple(r) for r in checks.read_columns(out / sidecar["csv"])]
    exact = checks.exact_alpha_gaps(
        p["theta_minus"][0], p["theta_plus"][0], p["gammas"][0], p["grid"], [a for a, _ in rows]
    )
    verdicts = checks.check_alpha_rows(rows, p["gammas"][0], exact)
    return {f"row alpha={a:g}": v for (a, _), v in zip(rows, verdicts)}


def check_outputs(w, out):
    """{operation: (ok, detail)} for the outputs of one command."""
    if w.subcommand == "solve":
        return _check_solution(w, out, "value.csv", "regret.csv", "policy.csv")
    if w.subcommand == "ids":
        return _check_solution(w, out, "ids_value.csv", "ids_regret.csv", "ids_policy.csv")
    return _check_sweep(w, out)


def operations(w):
    """Operation names of one round, known without running the program."""
    if w.subcommand == "sweep":
        return [f"row alpha={a:g}" for a in sorted(w.params["alphas"])]
    if w.subcommand == "solve":
        return ["regret_nonnegative", "value_plus_regret", "closed_form"]
    return ["regret_nonnegative", "value_plus_regret", "policy_certificate",
            "ids_selection", "ids_ratios"]


def tally(w, rounds, out):
    """Check the outputs of the rounds.  Rounds that wrote byte-identical
    CSVs share one verdict per operation, so the last round's files are
    checked and the verdicts count once per round."""
    ops = operations(w)
    problems = []
    bad_exit = [r["exit_code"] for r in rounds if r["exit_code"] != 0]
    if bad_exit:
        problems.append(f"exit codes {bad_exit}: {rounds[-1]['stderr'][-500:]}")
        verdicts = {op: (False, "command failed") for op in ops}
    else:
        try:
            verdicts = check_outputs(w, out)
        except (OSError, ValueError, StopIteration, IndexError, KeyError) as exc:
            problems.append(f"unreadable outputs: {exc!r}")
            verdicts = {op: (False, "unreadable") for op in ops}
    if sorted(verdicts) != sorted(ops):
        problems.append(f"operations {sorted(verdicts)} != {sorted(ops)}")
    digests = {json.dumps(r["digests"], sort_keys=True) for r in rounds}
    if len(digests) != 1:
        problems.append("repeated commands wrote different CSV bytes")
    failing = sorted(op for op, (ok, _) in verdicts.items() if not ok)
    unexpected = [op for op in failing if op not in w.expected_failures]
    if unexpected:
        problems.append(f"unexpected failures {unexpected}")
    return {
        "attempted": len(ops) * len(rounds),
        "failed": len(failing) * len(rounds),
        "correct": not problems,
        "problems": problems,
        "verdicts": {op: [bool(ok), detail] for op, (ok, detail) in verdicts.items()},
    }


# --------------------------------------------------------------- measuring


def pin_one_cpu():
    """One CPU for this process and, by inheritance, every child, so the
    calibration kernel and the commands share its contention."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def import_argv(*flags):
    return [sys.executable, *flags, "-c", "import artifact.cli"]


def calibration_s():
    """Wall time of a fixed kernel that uses no part of the program:
    value-iteration-like sweeps (gather, interpolate, max) over a
    2001-node vector, run in this process on the children's CPU.

    On a shared 2-CPU Xeon VM the speed drifted by a quarter within an
    hour, and imports and commands drifted together (median setup_s
    0.71 -> 0.52 s and long-horizon wall 15.2 -> 10.9 s between two sets
    of ten runs), so the end-to-end times are scaled by REFERENCE_CAL_S
    over the mean time of the kernels run next to them."""
    idx = np.arange(CAL_NODES)
    j = (idx * 7919) % (CAL_NODES - 1)
    t = (idx % 97) / 97.0
    reward = np.linspace(0.0, 1.0, CAL_NODES)
    v = np.zeros(CAL_NODES)
    t0 = time.perf_counter()
    for _ in range(CAL_SWEEPS):
        v = np.maximum(reward + 0.999 * (v[j] * (1.0 - t) + v[j + 1] * t), v)
    return time.perf_counter() - t0


def measure_setup(cwd):
    """Wall times of SETUP_IMPORTS fresh imports, and the calibration
    kernel timed before the first import and after each one."""
    run_child(import_argv(), cwd)  # untimed: byte-compiles src once per checkout
    times, cal = [], [calibration_s()]
    for _ in range(SETUP_IMPORTS):
        times.append(run_child(import_argv(), cwd)["wall_s"])
        cal.append(calibration_s())
    return times, cal


def command_rounds(w, argv, work, seconds, min_rounds, after=None):
    """Repeat one command, each run alone, at least `min_rounds` times and
    then while one more round, at the median round time so far, would end
    within `seconds`.  Every run writes into the same directory, as a user
    re-running it would.  `after(round)` runs after each command, inside
    the time budget."""
    out = fresh_dir(work / "out")
    w.prepare(out)
    rounds = []
    t0 = time.perf_counter()
    while len(rounds) < min_rounds or (
        time.perf_counter() - t0 + statistics.median(r["wall_s"] for r in rounds) <= seconds
    ):
        r = run_child(argv(out), work)
        r["digests"] = csv_digests(out)
        if after is not None:
            after(r)
        rounds.append(r)
    return rounds, out


def parse_importtime(stderr):
    """Cumulative import seconds per module from `python -X importtime`."""
    cumulative = {}
    for line in stderr.splitlines():
        if line.startswith("import time:") and "|" in line:
            _, cum, name = line[len("import time:"):].split("|")
            if cum.strip().isdigit():
                cumulative[name.strip()] = int(cum) * 1e-6
    return {metric: cumulative[mod] for metric, mod in IMPORT_NAMES.items() if mod in cumulative}


def calibrate(seconds):
    """Kernel times, repeated until they add up to `seconds` (at least one)."""
    times = [calibration_s()]
    while sum(times) < seconds:
        times.append(calibration_s())
    return times


def run_timed(w, work, seconds):
    """End-to-end metrics: the mean import and command times, each scaled
    by the mean time of the calibration kernels run next to them, the
    ones around the imports for setup_s and the ones before the first
    command and after each command for wall_s.  After a command, the
    kernels run for CAL_SHARE of its wall time, so a long command is
    followed by as many kernels as a few short ones.  Means, not medians:
    the machine's speed switches between two levels for seconds at a
    time, and a median of such samples jumps from one level to the other,
    where a mean moves in proportion to the time spent at each."""
    setup, setup_cal = measure_setup(work)
    command_cal = calibrate(0.0)

    def after(r):
        r["calibration_s"] = calibrate(CAL_SHARE * r["wall_s"])
        command_cal.extend(r["calibration_s"])

    rounds, out = command_rounds(w, w.command, work, seconds, MIN_TIMED_ROUNDS, after=after)
    metrics = {
        "setup_s": statistics.fmean(setup) * REFERENCE_CAL_S / statistics.fmean(setup_cal),
        "wall_s": statistics.fmean(r["wall_s"] for r in rounds)
        * REFERENCE_CAL_S / statistics.fmean(command_cal),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
    }
    return metrics, rounds, out, {
        "setup_s": setup, "setup_calibration_s": setup_cal, "command_calibration_s": command_cal
    }


def run_traced(w, work, seconds):
    run_child(import_argv(), work)  # untimed byte-compile, as in measure_setup
    imports = [
        parse_importtime(run_child(import_argv("-X", "importtime"), work)["stderr"])
        for _ in range(IMPORTTIME_RUNS)
    ]
    spans_path = work / "spans.json"

    def after(r):
        if not spans_path.exists():  # the command failed; main reports it
            return
        doc = json.loads(spans_path.read_text())
        spans_path.unlink()
        r["layers"] = tracer.layer_metrics(doc)
        r["coverage"] = tracer.coverage(doc, r["wall_s"])

    rounds, out = command_rounds(
        w, lambda out: w.traced_command(out, spans_path), work, seconds, 1, after=after
    )
    per_metric = {}
    for sample in imports + [r["layers"] for r in rounds if "layers" in r]:
        for name, value in sample.items():
            per_metric.setdefault(name, []).append(value)
    metrics = {name: statistics.median_low(values) for name, values in per_metric.items()}
    return metrics, rounds, out, {"imports": imports}


# -------------------------------------------------------------- reporting


def machine():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "env": SINGLE_THREAD,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0, help="recorded; inputs are fixed")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "artifact" / "cli.py").is_file():
        print(f"error: no program to benchmark: {SRC / 'artifact' / 'cli.py'} is missing",
              file=sys.stderr)
        return 2

    w = WORKLOADS[args.workload]
    pin_one_cpu()
    work = fresh_dir(BENCH / "work")
    try:
        measure = run_traced if args.trace else run_timed
        metrics, rounds, out, samples = measure(w, work, args.seconds)
        verdict = tally(w, rounds, out)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    units = UNITS[args.trace]
    if sorted(metrics) != sorted(units):  # a command or an import failed to report
        verdict["problems"].append(
            f"measured {sorted(metrics)}, BENCHMARK.json declares {sorted(units)}"
        )
        verdict["correct"] = False
        metrics = {}

    for op, (ok, detail) in verdict["verdicts"].items():
        mark = "ok" if ok else ("FAIL (known fault)" if op in w.expected_failures else "FAIL")
        print(f"{w.name}: {op}: {mark}: {detail}", file=sys.stderr)
    for problem in verdict["problems"]:
        print(f"{w.name}: INCORRECT: {problem}", file=sys.stderr)

    result = {
        "correct": verdict["correct"],
        "attempted": verdict["attempted"],
        "failed": verdict["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = {
        "workload": w.name,
        "command": w.subcommand,
        "inputs": w.params,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(),
        "rounds": [{k: v for k, v in r.items() if k != "stderr"} for r in rounds],
        "samples": samples,
        "checks": verdict,
        "result": result,
    }
    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    name = f"{w.name}_seed{args.seed}_trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
