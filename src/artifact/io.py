"""CSV and JSON serialization for solver outputs.

All numeric text is emitted with 12 significant digits so that results
can be compared across runs at the tolerances the solvers work to.  A
CSV is written as bytes, so every line ends in "\n" on every platform
and repeated runs are byte-identical.

A CSV is written a block of rows at a time, by one %-format call per
block.  The block's format string is the row's cell pattern repeated,
or, for a grid table (write_grid_csv: the value, regret, policy and
ratio tables of `solve` and `ids`, whose first column is their grid's
nodes), the grid's cached row template: the nodes' text already in
place, so that only the other columns are formatted.  The cache holds
one grid, about 0.44 MB at N 20001.
"""

from __future__ import annotations

import json
from functools import lru_cache

import numpy as np

__all__ = [
    "fmt",
    "write_grid_csv",
    "write_rows_csv",
    "write_json_doc",
    "json_number",
]

_DIGITS = ".12g"
_CELL = b"%" + _DIGITS.encode()


def fmt(x) -> str:
    """Render one number with 12 significant digits."""
    return format(float(x), _DIGITS)


# Rows per %-format call: big enough to amortise the call, small enough
# that the block's text stays a fraction of the table's memory.
_BLOCK_ROWS = 1024


@lru_cache(maxsize=1)
def _node_rows(grid):
    """Per block of `grid`'s nodes, the block's row template: one
    b"<node>,%.12g\\n" per node, <node> written as fmt writes it.  A tuple
    of bytes, so read-only; about 22 bytes a node.  A command writes all
    its grid tables on one grid, so the last grid is kept."""
    nodes = grid.nodes
    row = _CELL + b",%" + _CELL + b"\n"
    blocks = (nodes[start : start + _BLOCK_ROWS] for start in range(0, len(nodes), _BLOCK_ROWS))
    return tuple((row * len(b)) % tuple(b.tolist()) for b in blocks)


def _write_table(path, header, table, grid=None):
    """Write the header line, then one line per row of the 2-D float array
    `table`, each cell formatted like fmt, as bytes.  With `grid`, the
    first column is the grid's nodes and `table` holds the others.

    Each block of _BLOCK_ROWS rows is one %-format call.  Its format string
    is the row's cell pattern times the block's length, or with `grid`, the
    block's _node_rows template, each row's trailing cell replaced by the
    cells of the columns after the nodes; float text never contains "%", so
    the nodes' text passes through unchanged.  b"%.12g" and format(x,
    ".12g") share CPython's float-to-string routine, so every cell, inf,
    nan and -0 included, reads as fmt writes it.
    """
    line = b",".join([_CELL] * table.shape[1]) + b"\n"
    starts = range(0, len(table), _BLOCK_ROWS)
    if grid is None:
        forms = (line * min(_BLOCK_ROWS, len(table) - start) for start in starts)
    else:
        forms = (form.replace(_CELL + b"\n", line) for form in _node_rows(grid))
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for start, form in zip(starts, forms):
            fh.write(form % tuple(table[start : start + _BLOCK_ROWS].ravel().tolist()))


def write_rows_csv(path, header, rows):
    """Write a header plus rows of numbers, each formatted like fmt."""
    table = np.array(list(rows), dtype=float)
    _write_table(path, header, table.reshape(len(table), len(header)))


def write_grid_csv(path, grid, header, columns):
    """Write a grid table: the header, then per node of `grid` the node
    and its entry of each array in `columns`, from the grid's row
    template."""
    _write_table(path, header, np.column_stack(columns), grid)


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
