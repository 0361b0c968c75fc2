"""Tracing overhead and span coverage, per workload.

Alternates untraced and traced runs of each workload's command, so both
sides see the same stretch of machine time, and prints per workload the
median untraced and traced wall times, their median ratio minus one, the
share of the traced process spent inside `cli.main`, and the share of
`cli.main` that the layer spans cover.  The traced wall time leaves out
the LU counting done after the command returned.

    python3 benchmarks/overhead.py
"""

from __future__ import annotations

import json
import shutil
import statistics

import run

# Pairs per workload: fewer where one command is long.
PAIRS = {"long-horizon": 2, "fine-grid": 6, "alpha-sweep": 10}


def pairs(w, n):
    work = run.fresh_dir(run.BENCH / "work")
    out = run.fresh_dir(work / "out")
    w.prepare(out)
    spans = work / "spans.json"
    plain, traced, main_share, layer_share = [], [], [], []
    try:
        for i in range(n):
            for mode in ("plain", "traced") if i % 2 == 0 else ("traced", "plain"):
                if mode == "plain":
                    plain.append(run.run_child(w.command(out), work)["wall_s"])
                    continue
                r = run.run_child(w.traced_command(out, spans), work)
                cov = run.tracer.coverage(json.loads(spans.read_text()), r["wall_s"])
                traced.append(cov["command_wall_s"])
                main_share.append(cov["main_share"])
                layer_share.append(cov["layer_share"] / cov["main_share"])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {
        "pairs": n,
        "untraced_s": statistics.median(plain),
        "traced_s": statistics.median(traced),
        "overhead": statistics.median(t / p for t, p in zip(traced, plain)) - 1.0,
        "main_of_process": statistics.median(main_share),
        "spans_of_main": statistics.median(layer_share),
    }


def main():
    run.pin_one_cpu()
    for name, n in PAIRS.items():
        print(json.dumps({"workload": name, **pairs(run.WORKLOADS[name], n)}), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
