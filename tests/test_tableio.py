"""Deterministic table writers."""

import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monolift.tableio import csv_line, format_float, write_csv, write_json


def test_format_float_basic():
    assert format_float(1.0) == "1"
    assert format_float(0.5) == "0.5"
    assert format_float(-0.0) == "0"
    assert format_float(np.float64(2.5)) == "2.5"
    assert format_float(3) == "3"


@given(st.floats(allow_nan=False, allow_infinity=False, width=64))
@settings(max_examples=200, deadline=None)
def test_format_float_round_trips(x):
    assert float(format_float(x)) == (0.0 if x == 0.0 else x)


def positional_reference(x) -> str:
    return np.format_float_positional(0.0 if x == 0.0 else x, unique=True, trim="-")


@given(st.floats(allow_nan=False, allow_infinity=False, width=64))
@settings(max_examples=500, deadline=None)
def test_format_float_matches_numpy_positional(x):
    assert format_float(x) == positional_reference(x)


@pytest.mark.parametrize("x", [5e-324, -5e-324, 1e-5, 1.5e-7, 1e-4, 1e16, -1e16,
                               9.999999999999999e15, 12345678901234567.0, 2.0**70,
                               np.finfo(float).max, -0.0, 0.0, 123.0, 0.1])
def test_format_float_edge_cases(x):
    assert format_float(x) == positional_reference(x)
    assert float(format_float(x)) == x


def test_csv_line_mixed_types():
    assert csv_line([1.0, "tag", np.float64(0.25), np.int64(7)]) == "1,tag,0.25,7"


def test_write_csv_with_meta():
    buf = io.StringIO()
    write_csv(buf, ["a", "b"], [[1.0, 2.0], [0.5, -0.0]], meta={"tool": "x", "seed": 0})
    assert buf.getvalue() == "# tool=x\n# seed=0\na,b\n1,2\n0.5,0\n"


def test_write_csv_to_path(tmp_path):
    path = tmp_path / "t.csv"
    with open(path, "w", encoding="utf-8") as handle:
        write_csv(handle, ["v"], [[1.25]])
    assert path.read_text() == "v\n1.25\n"


def test_write_json_preserves_order():
    buf = io.StringIO()
    write_json(buf, {"b": 1, "a": [1.5, None]})
    text = buf.getvalue()
    assert text.endswith("\n")
    assert text.index('"b"') < text.index('"a"')
    assert json.loads(text) == {"b": 1, "a": [1.5, None]}


CELLS = st.one_of(
    st.floats(width=64),  # any float, nan and +-inf included
    st.floats(-1e-5, 1e-5),  # mostly written with an exponent by repr
    st.integers(-10**17, 10**17).map(float),  # integral: a ".0" ending, or an exponent
    st.sampled_from([-0.0, 0.0, 1e16, -1e16, 5e-324, float("inf"), -float("inf"),
                     float("nan"), 1.5e-7, 123.0, 0.1]),
)


@given(st.integers(1, 6).flatmap(
    lambda width: st.lists(st.lists(CELLS, min_size=width, max_size=width), max_size=8)))
@settings(max_examples=300, deadline=None)
def test_write_csv_matches_csv_line(rows):
    # write_csv formats a row at a time; each cell must read as csv_line's
    # per-cell rule writes it, for exponents, integral values, -0.0, +-inf
    # and nan alike
    columns = [f"c{i}" for i in range(len(rows[0]))] if rows else ["c0"]
    buf = io.StringIO()
    write_csv(buf, columns, rows)
    assert buf.getvalue() == "\n".join([",".join(columns)] + [csv_line(r) for r in rows]) + "\n"


@pytest.mark.parametrize("rows", [[], np.empty((0, 3))], ids=["list", "array"])
def test_write_csv_empty_table_is_its_header(rows):
    buf = io.StringIO()
    write_csv(buf, ["a", "b", "c"], rows, meta={"rows": 0})
    assert buf.getvalue() == "# rows=0\na,b,c\n"
