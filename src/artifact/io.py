"""CSV and JSON serialization for solver outputs.

All numeric text is emitted with 12 significant digits so that results
can be compared across runs at the tolerances the solvers work to, and
line endings are pinned to "\n" to keep repeated runs byte-identical.
"""

from __future__ import annotations

import json

import numpy as np

from .solver import PolicyTable, ValueFunction

__all__ = [
    "fmt",
    "write_value_csv",
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


# Rows per %-format call: big enough to amortise the call, small enough
# that the block's text stays a fraction of the table's memory.
_BLOCK_ROWS = 1024


def _write_table(path, header, table):
    """Write the header line, then one line per row of the 2-D float array
    `table`, each cell formatted like fmt, newline-pinned.

    Rows are formatted a block at a time by one %-format call; "%.12g" and
    format(x, ".12g") share CPython's float-to-string routine, so every
    cell, inf, nan and -0 included, reads as fmt writes it.
    """
    line = ",".join(["%" + _DIGITS] * len(header)) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(table), _BLOCK_ROWS):
            block = table[start : start + _BLOCK_ROWS]
            fh.write((line * len(block)) % tuple(block.ravel().tolist()))


def write_rows_csv(path, header, rows):
    """Write a header plus rows of numbers, formatted and newline-pinned."""
    table = np.array(list(rows), dtype=float)
    _write_table(path, header, table.reshape(len(table), len(header)))


def write_value_csv(path, vf: ValueFunction):
    _write_table(path, ["beta", "value"], np.column_stack((vf.grid.nodes, vf.values)))


def write_policy_csv(path, pt: PolicyTable):
    _write_table(path, ["beta", "q"], np.column_stack((pt.grid.nodes, pt.q)))


def write_ratio_csv(path, columns):
    """Columns (beta, delta0, delta1, info0, info1, q_star, ratio), one
    array each."""
    _write_table(
        path,
        ["beta", "delta0", "delta1", "info0", "info1", "q_star", "ratio"],
        np.column_stack(columns),
    )


def json_number(x):
    """x as a float, or None (JSON null) when it is not finite."""
    return float(x) if np.isfinite(x) else None


def write_json_doc(path, doc: dict):
    """Stable strict JSON: sorted keys, two-space indent, trailing newline.
    NaN and infinities raise ValueError, before the file is opened, so no
    partial file is left; pass them through json_number."""
    text = json.dumps(doc, sort_keys=True, indent=2, allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text + "\n")
