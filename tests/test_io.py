"""CSV writer: its bytes against a per-cell csv.writer reference, the
block boundaries, mixed row types, and the value-table round trip."""

from __future__ import annotations

import csv
import io
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from artifact import io as artio
from artifact.solver import BeliefGrid, PolicyTable, ValueFunction


def reference_bytes(header, rows):
    """What a header plus rows of format(float(x), ".12g") cells look like
    through csv.writer with newline-pinned lines."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        w.writerow([format(float(x), ".12g") for x in row])
    return buf.getvalue().encode()


SPECIAL = [
    float("inf"),
    float("-inf"),
    float("nan"),
    0.0,
    -0.0,
    5e-324,
    -5e-324,
    2.2250738585072014e-308 / 3.0,
    1e300,
    -1e300,
    1e-300,
    -1e-300,
    1.0,
    -3.0,
    2.0**53,
    1e16,
    123456789012.0,
    0.1,
]
cells = st.one_of(
    st.sampled_from(SPECIAL),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.integers(-(2**62), 2**62).map(float),
)
tables = st.integers(1, 7).flatmap(
    lambda ncols: st.lists(st.lists(cells, min_size=ncols, max_size=ncols), max_size=30).map(
        lambda rows: (ncols, rows)
    )
)


def header_of(ncols):
    return [f"c{k}" for k in range(ncols)]


class TestTableKernel:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(tables)
    def test_matches_per_cell_reference(self, tmp_path, table):
        ncols, rows = table
        path = tmp_path / "t.csv"
        arr = np.array(rows, dtype=float).reshape(len(rows), ncols)
        artio._write_table(path, header_of(ncols), arr)
        assert path.read_bytes() == reference_bytes(header_of(ncols), rows)

    @pytest.mark.parametrize(
        "n_rows",
        [0, 1, artio._BLOCK_ROWS - 1, artio._BLOCK_ROWS, artio._BLOCK_ROWS + 1,
         2 * artio._BLOCK_ROWS + 1],
    )
    def test_block_boundaries(self, tmp_path, n_rows):
        rng = np.random.default_rng(n_rows)
        arr = rng.standard_normal((n_rows, 3)) * 10.0 ** rng.integers(-8, 9, (n_rows, 3))
        path = tmp_path / "t.csv"
        artio._write_table(path, ["a", "b", "c"], arr)
        data = path.read_bytes()
        assert data == reference_bytes(["a", "b", "c"], arr.tolist())
        assert data.count(b"\n") == n_rows + 1

    def test_zero_rows_write_the_header_alone(self, tmp_path):
        path = tmp_path / "t.csv"
        artio.write_rows_csv(path, ["alpha", "delta_R"], [])
        assert path.read_bytes() == b"alpha,delta_R\n"


class TestWriters:
    def test_rows_mix_int_bool_and_numpy_scalars(self, tmp_path):
        rows = [
            (1, True, np.float32(0.1), np.int64(7), np.float64(-0.0), 2**53 + 1, 10**20),
            (False, -2, np.bool_(True), np.float64("nan"), np.int32(-5), 0.5, np.inf),
        ]
        header = [f"c{k}" for k in range(7)]
        path = tmp_path / "t.csv"
        artio.write_rows_csv(path, header, iter(rows))
        assert path.read_bytes() == reference_bytes(header, rows)

    def test_rows_wider_than_the_header_are_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            artio.write_rows_csv(tmp_path / "t.csv", ["a", "b"], [(1.0, 2.0, 3.0)])

    def test_typed_writers_match_the_row_reference(self, tmp_path):
        grid = BeliefGrid(101)
        b = grid.nodes
        vf = ValueFunction(grid, np.exp(b) / 3.0)
        pt = PolicyTable(grid, (b > 0.2).astype(float))
        cols = (b, b**2, -b, np.abs(b), b / 7.0, pt.q, np.where(b > 0.5, np.inf, b))

        artio.write_value_csv(tmp_path / "v.csv", vf)
        artio.write_policy_csv(tmp_path / "p.csv", pt)
        artio.write_ratio_csv(tmp_path / "r.csv", cols)

        assert (tmp_path / "v.csv").read_bytes() == reference_bytes(
            ["beta", "value"], zip(b, vf.values)
        )
        assert (tmp_path / "p.csv").read_bytes() == reference_bytes(
            ["beta", "q"], zip(b, pt.q)
        )
        assert (tmp_path / "r.csv").read_bytes() == reference_bytes(
            ["beta", "delta0", "delta1", "info0", "info1", "q_star", "ratio"], zip(*cols)
        )

    def test_value_table_round_trip(self, tmp_path):
        grid = BeliefGrid(801)
        vf = ValueFunction(grid, np.cos(3.0 * grid.nodes) / (1.0 - 0.99))
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        artio.write_value_csv(first, vf)
        back = artio.read_value_csv(first)
        assert back.grid == grid
        np.testing.assert_allclose(back.values, vf.values, rtol=1e-11, atol=0.0)
        artio.write_value_csv(second, back)
        assert second.read_bytes() == first.read_bytes()

    @pytest.mark.parametrize(
        "text",
        ["", "beta,value\n-1,0\n0\n1,0\n", "beta,value\n-1,0\nx,0\n1,0\n",
         "beta,value\n", "beta,value\n-1,0\n1,0\n", "beta,value\n-1,0\n0.1,0\n1,0\n"],
        ids=["empty", "one-cell-row", "non-numeric-cell", "header-only", "two-rows",
             "non-uniform-betas"],
    )
    def test_malformed_value_table_names_the_file(self, tmp_path, text):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match="bad.csv"):
            artio.read_value_csv(path)


class TestJsonDoc:
    def test_non_strict_doc_leaves_no_partial_file(self, tmp_path):
        path = tmp_path / "doc.json"
        with pytest.raises(ValueError):
            artio.write_json_doc(path, {"a": 1.0, "z": float("nan")})
        assert not path.exists()
        artio.write_json_doc(path, {"a": 1.0})
        before = path.read_bytes()
        with pytest.raises(ValueError):
            artio.write_json_doc(path, {"a": 2.0, "z": float("inf")})
        assert path.read_bytes() == before
        assert json.loads(before) == {"a": 1.0}
        assert before.endswith(b"}\n")
