"""Run the same CLI commands on two checkouts and list the outputs that differ.

    python3 tools/compare_outputs.py BASE_TREE [HEAD_TREE]

HEAD_TREE defaults to the checkout holding this script.  Each tree runs
every command of RUNS from its own src/, single-threaded except for the
sweeps that WORKERS gives a pool, in a fresh temporary directory, a sweep
with its manifest from MANIFESTS; a command's stdout with its exit status,
and its stderr, count as two more outputs.  Outputs are compared byte for
byte, except that the `elapsed_s` line of a sweep sidecar, a wall time,
is dropped from every JSON file.  Prints each output that differs or
exists in one tree only, with the first line where an output differs as
each tree has it, cut to 120 characters, and exits 1 when there is one.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ALPHAS = [0.0, 0.001, 0.01, 0.05, 0.075] + [round(0.1 + 0.05 * k, 2) for k in range(19)]
# each sweep run's manifest, writing to out/: the benchmark's alpha-sweep
# (benchmarks/run.py), and again with a tol that no optimal solve meets,
# so every row is a failure record; one sweep of every other kind and of
# the fair-coin curves at 401 nodes, the scaling sweep again at a beta0
# between nodes, a heatmap whose thetas reach 1/2, the heatmap again on a
# pool of WORKERS, and two manifests that exit 2: one on its even grid,
# one on a scaling sweep with two theta_plus values
ALPHA_SWEEP = {
    "kind": "alpha", "theta_minus": [0.55], "theta_plus": [0.7],
    "gammas": [0.99], "alphas": ALPHAS, "grid": 801, "out_dir": "out",
}
SCALING_SWEEP = {
    "kind": "scaling", "theta_minus": [0.5], "theta_plus": [0.7],
    "gammas": [0.9, 0.99, 0.999], "grid": 401, "out_dir": "out",
}
HEATMAP_SWEEP = {
    "kind": "heatmap", "theta_minus": [0.6, 0.7], "theta_plus": [0.6, 0.7, 0.8],
    "gammas": [0.99], "alphas": [0.5], "grid": 401, "out_dir": "out",
}
MANIFESTS = {
    "alpha-sweep": ALPHA_SWEEP,
    "alpha-sweep-uncertified": {**ALPHA_SWEEP, "tol": 1e-14},
    "curves-sweep": {
        "kind": "curves", "theta_plus": [0.6, 0.7, 0.8], "gammas": [0.9, 0.99],
        "grid": 401, "out_dir": "out",
    },
    "fair-curves-sweep": {
        "kind": "curves", "theta_plus": [0.6, 0.7, 0.8], "gammas": [0.9, 0.99],
        "symmetric": False, "grid": 401, "out_dir": "out",
    },
    "scaling-sweep": SCALING_SWEEP,
    # the one sweep whose regrets are read between nodes, by interpolation
    "scaling-sweep-between-nodes": {**SCALING_SWEEP, "beta0": 0.123},
    "heatmap-sweep": HEATMAP_SWEEP,
    "heatmap-sweep-pooled": HEATMAP_SWEEP,
    "heatmap-fair-sweep": {
        "kind": "heatmap", "theta_minus": [0.3, 0.5], "theta_plus": [0.5, 0.7],
        "gammas": [0.99], "alphas": [0.5], "grid": 401, "out_dir": "out",
    },
    "invalid-sweep": {
        "kind": "curves", "theta_plus": [0.7], "gammas": [0.9], "grid": 400, "out_dir": "out",
    },
    "wrong-length-sweep": {
        "kind": "scaling", "theta_minus": [0.5], "theta_plus": [0.6, 0.7],
        "gammas": [0.9], "grid": 401, "out_dir": "out",
    },
}
# ARTIFACT_WORKERS of the runs that do not run serially: a pool of two
# gives each worker process its own cached optimal solve
WORKERS = {"heatmap-sweep-pooled": 2}
# long-horizon, fine-grid and alpha-sweep are the benchmark's workloads
RUNS = {
    "solve-long-horizon": ["solve", "--theta-minus", "0.7", "--theta-plus", "0.7",
                           "--gamma", "0.9999", "--out", "out"],
    "solve-json": ["solve", "--theta-minus", "0.55", "--theta-plus", "0.7",
                   "--gamma", "0.99", "--format", "json", "--out", "out"],
    # ids's JSON writer: ids_solution.json and no CSVs
    "ids-json": ["ids", "--theta-minus", "0.55", "--theta-plus", "0.7", "--gamma", "0.99",
                 "--alpha", "0.5", "--grid", "401", "--format", "json", "--out", "out"],
    "ids-fine-grid": ["ids", "--theta-minus", "0.55", "--theta-plus", "0.7", "--gamma", "0.99",
                      "--alpha", "0.5", "--grid", "20001", "--out", "out"],
    # the grid tables' block edges: N 1025 leaves one row in the last
    # block of 1024, N 2049 one row in the third
    "ids-block-edge": ["ids", "--theta-minus", "0.55", "--theta-plus", "0.7", "--gamma", "0.99",
                       "--alpha", "0.5", "--grid", "1025", "--out", "out"],
    # the ratio column is inf at 138 nodes, so the writer meets non-finite cells
    "ids-tiny-alpha": ["ids", "--theta-minus", "0.55", "--theta-plus", "0.7", "--gamma", "0.99",
                       "--alpha", "0.001", "--grid", "401", "--out", "out"],
    "solve-block-edge": ["solve", "--theta-minus", "0.55", "--theta-plus", "0.7",
                         "--gamma", "0.99", "--grid", "2049", "--out", "out"],
    # linspace leaves -1.1e-16 at the middle node of N 99
    "solve-odd-center": ["solve", "--theta-minus", "0.55", "--theta-plus", "0.7",
                         "--gamma", "0.99", "--grid", "99", "--out", "out"],
    # near a fair coin at gamma close to 1: 27 policy-iteration rounds, each
    # solved by BiCGSTAB, so the greedy step runs many times
    "solve-near-fair": ["solve", "--theta-minus", "0.5", "--theta-plus", "0.55",
                        "--gamma", "0.9999", "--grid", "2001", "--out", "out"],
    # the two LU paths: 57 policy-iteration rounds, of which round 2 misses
    # BiCGSTAB and every later round stays on LU; and an IDS evaluation
    # that misses BiCGSTAB and meets its certificate by LU
    "solve-stays-on-lu": ["solve", "--theta-minus", "0.5", "--theta-plus", "0.51",
                          "--gamma", "0.9999", "--grid", "2001", "--out", "out"],
    "ids-lu-fallback": ["ids", "--theta-minus", "0.5", "--theta-plus", "0.7", "--gamma", "0.999",
                        "--alpha", "0.5", "--grid", "2001", "--out", "out"],
    "compare": ["compare", "--theta-minus", "0.5", "--theta-plus", "0.7",
                "--gamma", "0.99", "--grid", "801", "--out", "out"],
    "compare-symmetric": ["compare", "--theta-minus", "0.7", "--theta-plus", "0.7",
                          "--gamma", "0.99", "--grid", "801", "--out", "out"],
    **{name: ["sweep", "manifest.json"] for name in MANIFESTS},
    # error paths, whose stderr carries the library's messages: the optimal
    # value's and the policy evaluation's certificates miss tol (exit 3),
    # an alpha outside [0, 1] is refused (exit 2), and compare is asked for
    # arms that no closed form covers (exit 4)
    "solve-uncertified": ["solve", "--theta-minus", "0.7", "--theta-plus", "0.7",
                          "--gamma", "0.99", "--tol", "1e-14", "--out", "out"],
    "ids-uncertified": ["ids", "--theta-minus", "0.55", "--theta-plus", "0.7", "--gamma", "0.99",
                        "--alpha", "0.5", "--tol", "1e-30", "--out", "out"],
    "ids-invalid-alpha": ["ids", "--theta-minus", "0.55", "--theta-plus", "0.7",
                          "--gamma", "0.99", "--alpha", "1.5", "--out", "out"],
    "compare-uncovered": ["compare", "--theta-minus", "0.3", "--theta-plus", "0.3",
                          "--gamma", "0.9", "--grid", "401", "--out", "out"],
}
ELAPSED = re.compile(rb'^\s*"elapsed_s": [^\n]*\n', re.M)


def run_all(tree: Path, work: Path) -> dict:
    """Every output of RUNS on `tree`, keyed by run and relative path."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1")
    outputs = {}
    for name, args in RUNS.items():
        cwd = work / name
        cwd.mkdir(parents=True)
        if name in MANIFESTS:
            (cwd / args[1]).write_text(json.dumps(MANIFESTS[name]))
        proc = subprocess.run([sys.executable, "-m", "artifact.cli", *args], cwd=cwd,
                              env=dict(env, ARTIFACT_WORKERS=str(WORKERS.get(name, 1))),
                              capture_output=True)
        outputs[f"{name}: stdout"] = proc.stdout + f"exit {proc.returncode}\n".encode()
        outputs[f"{name}: stderr"] = proc.stderr
        for f in sorted((cwd / "out").rglob("*")):
            if f.is_file():
                data = f.read_bytes()
                outputs[f"{name}: {f.relative_to(cwd)}"] = (
                    ELAPSED.sub(b"", data) if f.suffix == ".json" else data
                )
    return outputs


def first_difference(old: bytes, new: bytes, width: int = 120) -> tuple[int, str, str]:
    """The number of the first line where old and new differ, and that
    line of each, cut to `width` characters; "<end>" where one ends."""
    a, b = old.split(b"\n"), new.split(b"\n")
    i = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))

    def show(lines):
        if i >= len(lines):
            return "<end>"
        text = lines[i].decode(errors="replace")
        return text if len(text) <= width else text[:width - 3] + "..."

    return i + 1, show(a), show(b)


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print("usage: compare_outputs.py BASE_TREE [HEAD_TREE]", file=sys.stderr)
        return 2
    base = Path(argv[0]).resolve()
    head = Path(argv[1]).resolve() if len(argv) == 2 else Path(__file__).resolve().parents[1]
    with tempfile.TemporaryDirectory() as tmp:
        old = run_all(base, Path(tmp, "base"))
        new = run_all(head, Path(tmp, "head"))
    keys = sorted(old.keys() | new.keys())
    differ = [k for k in keys if old.get(k) != new.get(k)]
    for k in differ:
        if k in old and k in new:
            line, was, now = first_difference(old[k], new[k])
            print(f"differs: {k}\n  line {line} base: {was}\n  line {line} head: {now}")
        else:
            print(f"only in {'base' if k in old else 'head'}: {k}")
    print(f"{len(differ)} of {len(keys)} outputs differ between {base} and {head}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
