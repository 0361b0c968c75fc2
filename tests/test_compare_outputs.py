"""tools/compare_outputs.py, the byte gate between two checkouts: what it
runs, how it reports the first differing line, and the one line of a
sidecar it drops."""

from __future__ import annotations

import argparse
import importlib.util
import json
from pathlib import Path

import pytest

from artifact import cli, experiments

TOOL = Path(__file__).resolve().parents[1] / "tools" / "compare_outputs.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("compare_outputs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestFirstDifference:
    def test_reports_the_first_differing_line_of_each(self, tool):
        old = b"beta,value\n-1,0.5\n0,0.25\n1,0.5\n"
        new = b"beta,value\n-1,0.5\n0,0.2500001\n1,0.75\n"
        assert tool.first_difference(old, new) == (3, "0,0.25", "0,0.2500001")

    def test_shows_end_where_one_output_is_a_prefix_of_the_other(self, tool):
        assert tool.first_difference(b"a\nb", b"a\nb\nc") == (3, "<end>", "c")
        assert tool.first_difference(b"a\nb\nc", b"a\nb") == (3, "c", "<end>")

    def test_cuts_a_long_line_to_the_width(self, tool):
        exact, long = "x" * 120, "y" * 121
        line, was, now = tool.first_difference(f"{exact}\n".encode(), f"{long}\n".encode())
        assert (line, was) == (1, exact)
        assert now == "y" * 117 + "..." and len(now) == 120


class TestElapsed:
    def test_drops_only_the_elapsed_line_of_a_sidecar(self, tool):
        meta = {"grid": 801, "kind": "alpha", "label": "elapsed_s", "rows": [1, 2]}
        sidecar = json.dumps({**meta, "elapsed_s": 0.123}, sort_keys=True, indent=2) + "\n"
        kept = tool.ELAPSED.sub(b"", sidecar.encode())
        assert kept == (json.dumps(meta, sort_keys=True, indent=2) + "\n").encode()
        assert json.loads(kept) == meta


class TestCoverage:
    # a subcommand or a sweep kind the gate never runs could change its
    # outputs unseen
    def test_runs_use_every_subcommand(self, tool):
        sub = next(a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        assert {args[0] for args in tool.RUNS.values()} == set(sub.choices)

    def test_manifests_cover_every_sweep_kind(self, tool):
        assert {m["kind"] for m in tool.MANIFESTS.values()} == set(experiments._KINDS)
