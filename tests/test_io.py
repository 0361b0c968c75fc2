"""CSV writer: its bytes against a per-cell csv.writer reference, the
block boundaries, mixed row types, the value-table round trip, and the
grid tables written from a cached row template."""

from __future__ import annotations

import csv
import io
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from artifact import io as artio
from artifact.cli import main
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


RATIO_HEADER = ["beta", "delta0", "delta1", "info0", "info1", "q_star", "ratio"]


def special_columns(grid, ncols):
    """`ncols` value columns on `grid`, the SPECIAL cells among them."""
    rng = np.random.default_rng(grid.n_points)
    cols = rng.standard_normal((ncols, grid.n_points)) * 10.0 ** rng.integers(
        -300, 300, (ncols, grid.n_points)
    )
    cols.ravel()[: len(SPECIAL)] = SPECIAL[: cols.size]
    return cols


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

    @pytest.mark.parametrize("n", [3, 101, 1023, 1025, 2049])
    def test_typed_writers_match_the_row_reference(self, tmp_path, n):
        grid = BeliefGrid(n)
        b = grid.nodes
        vf = ValueFunction(grid, np.where(b > 0.5, -0.0, np.where(b < -0.5, 5e-324, np.exp(b))))
        pt = PolicyTable(grid, (b > 0.2).astype(float))
        cols = (b, *special_columns(grid, 6))

        artio._node_rows.cache_clear()
        artio.write_value_csv(tmp_path / "v.csv", vf)
        artio.write_policy_csv(tmp_path / "p.csv", pt)
        artio.write_ratio_csv(tmp_path / "r.csv", cols)
        # one grid's row template, formatted once and reused
        assert artio._node_rows.cache_info()[:2] == (2, 1)

        assert (tmp_path / "v.csv").read_bytes() == reference_bytes(
            ["beta", "value"], zip(b, vf.values)
        )
        assert (tmp_path / "p.csv").read_bytes() == reference_bytes(
            ["beta", "q"], zip(b, pt.q)
        )
        assert (tmp_path / "r.csv").read_bytes() == reference_bytes(RATIO_HEADER, zip(*cols))

    def test_value_table_round_trip(self, tmp_path):
        # 12 digits reproduce each value within 1e-11, and writing the values
        # read back rewrites the same bytes
        grid = BeliefGrid(801)
        vf = ValueFunction(grid, np.cos(3.0 * grid.nodes) / (1.0 - 0.99))
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        artio.write_value_csv(first, vf)
        assert first.read_text().startswith("beta,value\n")
        beta, values = np.loadtxt(first, delimiter=",", skiprows=1, unpack=True)
        np.testing.assert_allclose(beta, grid.nodes, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(values, vf.values, rtol=1e-11, atol=0.0)
        artio.write_value_csv(second, ValueFunction(grid, values))
        assert second.read_bytes() == first.read_bytes()


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


class TestGridRows:
    """Tables whose first column is a grid's nodes, written from the
    grid's cached row template."""

    @pytest.mark.parametrize("n", [3, 1023, 1025, 2049])
    @pytest.mark.parametrize("ncols", [2, 7])
    def test_matches_per_cell_reference(self, tmp_path, n, ncols):
        grid = BeliefGrid(n)
        cols = special_columns(grid, ncols - 1)
        header = header_of(ncols)
        path = tmp_path / "t.csv"
        artio._write_table(path, header, cols.T, grid)
        data = path.read_bytes()
        assert data == reference_bytes(header, zip(grid.nodes, *cols))
        assert data.count(b"\n") == n + 1

    def test_other_beta_columns_take_the_generic_path(self, tmp_path):
        # the nodes but for the sign of zero, reversed, or one node short
        grid = BeliefGrid(5)
        for beta in (np.where(grid.nodes == 0.0, -0.0, grid.nodes), grid.nodes[::-1],
                     grid.nodes[:4]):
            cols = (beta, *special_columns(grid, 6)[:, : len(beta)])
            artio._node_rows.cache_clear()
            artio.write_ratio_csv(tmp_path / "r.csv", cols)
            assert artio._node_rows.cache_info().currsize == 0
            assert (tmp_path / "r.csv").read_bytes() == reference_bytes(RATIO_HEADER, zip(*cols))

    def test_a_second_grid_gets_its_own_nodes(self, tmp_path):
        for n in (1025, 801, 1025):
            grid = BeliefGrid(n)
            vf = ValueFunction(grid, grid.nodes**3)
            artio.write_value_csv(tmp_path / "v.csv", vf)
            assert (tmp_path / "v.csv").read_bytes() == reference_bytes(
                ["beta", "value"], zip(grid.nodes, vf.values)
            )

    @pytest.mark.parametrize("command", ["solve", "ids"])
    def test_cli_tables_match_the_generic_writer(self, tmp_path, monkeypatch, command):
        args = [command, "--theta-minus", "0.55", "--theta-plus", "0.7", "--gamma", "0.99",
                "--grid", "2049"] + (["--alpha", "0.5"] if command == "ids" else [])
        assert main([*args, "--out", str(tmp_path / "cached")]) == 0
        write, grids = artio._write_table, []

        def generic(path, header, table, grid=None):
            grids.append(grid)
            if grid is not None:
                table = np.column_stack((grid.nodes, table))
            write(path, header, table)

        monkeypatch.setattr(artio, "_write_table", generic)
        assert main([*args, "--out", str(tmp_path / "generic")]) == 0
        names = sorted(p.name for p in (tmp_path / "cached").glob("*.csv"))
        assert len(names) == len(grids) == (4 if command == "ids" else 3)
        assert all(g == BeliefGrid(2049) for g in grids)
        for name in names:
            assert (tmp_path / "cached" / name).read_bytes() == (
                tmp_path / "generic" / name
            ).read_bytes(), name
