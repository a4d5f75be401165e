"""Differential test of ``setcalc._dedup_rows`` against the row loop it
replaced, kept verbatim below as the oracle.

The array pass returns right after the sort when no two neighbours lie
within ``VERTEX_TOL``, and runs the loop otherwise; either way the rows
and their order must be bit for bit the oracle's.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustkkt import setcalc
from robustkkt.setcalc import VERTEX_TOL, Polytope, _dedup_rows


def oracle_dedup_rows(rows: np.ndarray) -> np.ndarray:
    order = np.lexsort(rows.T[::-1])
    rows = rows[order]
    keep = [0]
    for i in range(1, rows.shape[0]):
        if np.max(np.abs(rows[i] - rows[keep[-1]])) > VERTEX_TOL:
            keep.append(i)
    return rows[keep]


def assert_bit_equal(rows):
    rows = np.asarray(rows, dtype=float)
    before = rows.copy()
    got, want = _dedup_rows(rows), oracle_dedup_rows(rows)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert rows.tobytes() == before.tobytes()  # the input is left alone


# a few values, each moved by a few steps of 0.6 VERTEX_TOL, so that
# near-duplicates, and chains of them, are common
_NEAR = st.builds(lambda base, k: base + k * 0.6 * VERTEX_TOL,
                  st.sampled_from([0.0, -1.0, 0.5, 3.0]),
                  st.integers(-3, 3))
_VALUE = st.one_of(_NEAR, st.floats(-4, 4), st.sampled_from(
    [0.0, -0.0, np.inf, -np.inf, np.nan]))


# inf - inf in either version warns; the NaN it gives counts as near
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("d", [1, 2, 3])
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_random_rows(d, data):
    rows = data.draw(st.lists(st.tuples(*[_VALUE] * d), min_size=1,
                              max_size=12))
    assert_bit_equal(rows)


@pytest.mark.parametrize("n", [2, 3, 5, 9])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_chains_of_near_duplicates(n, d):
    """Neighbours 0.6 VERTEX_TOL apart: the loop keeps every other row,
    measured from the last row kept, where a test of neighbours alone
    would keep only the first."""
    steps = np.arange(n)[:, None] * 0.6 * VERTEX_TOL
    for axis in range(d):
        rows = np.zeros((n, d))
        rows[:, axis:axis + 1] = 1.0 + steps
        assert_bit_equal(rows)
        assert_bit_equal(rows[::-1])
    assert _dedup_rows(np.outer(np.arange(5) * 0.6 * VERTEX_TOL,
                                [1.0, 0.0])).shape[0] == 3


@pytest.mark.parametrize("rows", [
    [[np.nan, 0.0], [np.nan, 0.0]],
    [[np.nan, 1.0], [0.0, 1.0], [np.nan, 1.0]],
    [[0.0, np.nan], [0.0, 2.0]],
    [[0.0, 0.0], [-0.0, 0.0], [0.0, -0.0]],
    [[-0.0], [0.0]],
    [[np.inf, 0.0], [np.inf, 0.0], [-np.inf, 0.0]],
    [[np.inf], [-np.inf], [1.0]],
    [[1.0, 2.0, np.inf], [1.0, 2.0, 3.0]],
], ids=["nan-twice", "nan-around", "nan-second", "signed-zeros",
        "signed-zero-1d", "infinities", "infinities-1d", "inf-last"])
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_nan_signed_zero_and_inf(rows):
    assert_bit_equal(rows)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_one_row(d):
    rows = np.arange(d, dtype=float)[None, :]
    assert_bit_equal(rows)
    assert _dedup_rows(rows) is not rows


@pytest.mark.parametrize("d", [1, 2, 3])
def test_no_rows(d):
    """No row: an empty array, where the oracle indexed row 0 of nothing
    (no Polytope gets here: it refuses an empty vertex list first)."""
    rows = np.empty((0, d))
    with pytest.raises(IndexError):
        oracle_dedup_rows(rows)
    assert _dedup_rows(rows).shape == (0, d)


def test_regular_polygon(monkeypatch):
    """Every row set that _regular_polygon(m) and its Polytope dedup, for
    m from 8 to 400."""
    seen = []

    def spy(rows):
        seen.append(rows.copy())
        return _dedup_rows(rows)

    monkeypatch.setattr(setcalc, "_dedup_rows", spy)
    for m in range(8, 401):
        Polytope(setcalc._regular_polygon(m))
    assert len(seen) == 2 * 393
    for rows in seen:
        assert_bit_equal(rows)


def _lines_run(rows) -> int:
    """The lines of _dedup_rows that one call on rows runs."""
    count = 0

    def tracer(frame, event, arg):
        nonlocal count
        if frame.f_code is not _dedup_rows.__code__:
            return None
        if event == "line":
            count += 1
        return tracer

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        _dedup_rows(rows)
    finally:
        sys.settrace(previous)
    return count


def test_no_near_neighbour_runs_no_row_loop():
    """Rows without near neighbours cost the same lines at any count."""
    small, large = (setcalc._regular_polygon(m) for m in (8, 400))
    assert _lines_run(small) == _lines_run(large)
    near = np.outer(np.arange(40) * 0.6 * VERTEX_TOL, [1.0, 0.0])
    assert _lines_run(near) > _lines_run(large)
