"""CSV and JSON serialization for solver outputs.

All numeric text is emitted with 12 significant digits so that results
can be compared across runs at the tolerances the solvers work to, and
line endings are pinned to "\n" to keep repeated runs byte-identical.
"""

from __future__ import annotations

import csv
import json

import numpy as np

from .solver import BeliefGrid, PolicyTable, ValueFunction

__all__ = [
    "fmt",
    "write_value_csv",
    "read_value_csv",
    "write_policy_csv",
    "write_ratio_csv",
    "write_rows_csv",
    "write_json_doc",
    "json_number",
]

_DIGITS = ".12g"


def fmt(x) -> str:
    """Render one number with 12 significant digits."""
    return format(float(x), _DIGITS)


def write_rows_csv(path, header, rows):
    """Write a header plus rows of numbers, formatted and newline-pinned."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([fmt(x) for x in row])


def write_value_csv(path, vf: ValueFunction):
    write_rows_csv(path, ["beta", "value"], zip(vf.grid.nodes, vf.values))


def write_policy_csv(path, pt: PolicyTable):
    write_rows_csv(path, ["beta", "q"], zip(pt.grid.nodes, pt.q))


def write_ratio_csv(path, rows):
    """Rows of (beta, delta0, delta1, info0, info1, q_star, ratio)."""
    write_rows_csv(
        path,
        ["beta", "delta0", "delta1", "info0", "info1", "q_star", "ratio"],
        rows,
    )


def read_value_csv(path) -> ValueFunction:
    """Rebuild a ValueFunction from a beta,value table on a uniform grid."""
    betas, values = [], []
    with open(path, newline="") as fh:
        r = csv.reader(fh)
        header = next(r)
        if header[:2] != ["beta", "value"]:
            raise ValueError(f"unexpected header {header!r} in {path}")
        for row in r:
            betas.append(float(row[0]))
            values.append(float(row[1]))
    n = len(betas)
    grid = BeliefGrid(n)
    if not np.allclose(grid.nodes, betas, atol=1e-9):
        raise ValueError(f"{path} does not hold a uniform odd grid on [-1, 1]")
    return ValueFunction(grid, np.array(values))


def json_number(x):
    """x as a float, or None (JSON null) when it is not finite."""
    return float(x) if np.isfinite(x) else None


def write_json_doc(path, doc: dict):
    """Stable strict JSON: sorted keys, two-space indent, trailing newline.
    NaN and infinities raise ValueError; pass them through json_number."""
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2, allow_nan=False)
        fh.write("\n")
