"""Differential test of the array scan against the per-scenario scan.

``robustfeas._scan`` evaluates a constraint at one point for every
scenario in one pass of array operations (``Expr.scan_fn``) and falls back
to one scalar call per scenario on a DomainError or a value that is not
finite.  ``scan_each`` in ``tests/scenario_oracle.py`` is the loop of
scalar calls it replaced.  The two must give bit-equal values, compared as
int64 views so that -0.0 against 0.0 and NaN count, or raise the same
exception with the same message.  Inputs: hypothesis trees with v
(``_TREES``) at random points over scenario intervals and finite scenario
lists, the bundled constraints, and planted faults.
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustkkt import robustfeas
from robustkkt.cli import load_problem
from robustkkt.funcdsl import ExprError, parse_expr
from scenario_oracle import scan_each
from test_scalar_fn import _COORD, _TREES


def _outcome(run):
    try:
        return "value", run().view(np.int64).tolist()
    except (ExprError, ArithmeticError) as exc:
        return type(exc), str(exc)


def assert_same(e, x, grid):
    """The outcome of the array scan, equal to the oracle's, and whether
    it came from the array pass (no scalar call)."""
    xl = np.asarray(x, dtype=float).reshape(-1).tolist()
    fn, scan = partial(e.scalar_fn, xl), partial(e.scan_fn, xl)
    calls = []

    def counted(t):
        calls.append(t)
        return fn(t)

    want = _outcome(lambda: scan_each(fn, grid))
    got = _outcome(lambda: robustfeas._scan(counted, scan, grid))
    assert got == want, (str(e), x, grid.tolist())
    return got, not calls


_INTERVALS = st.tuples(st.floats(-3, 3), st.floats(-3, 3),
                       st.sampled_from([2, 3, 21, 101])).map(
    lambda t: np.linspace(min(t[:2]), max(t[:2]), t[2]))
_LISTS = st.lists(st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]),
                            st.floats(-3, 3, allow_subnormal=False)),
                  min_size=1, max_size=8).map(
    lambda vs: np.array(vs, dtype=float))


class TestGeneratedTrees:
    @settings(max_examples=300, deadline=None)
    @given(_TREES.filter(lambda e: e.has_v),
           st.lists(_COORD, min_size=3, max_size=3),
           st.one_of(_INTERVALS, _LISTS))
    def test_bit_equal_or_same_error(self, e, x, grid):
        assert_same(e, x, grid)

    @settings(max_examples=100, deadline=None)
    @given(_TREES.filter(lambda e: e.has_v),
           st.lists(_COORD, min_size=3, max_size=3), _INTERVALS, _LISTS)
    def test_kept_nodes_follow_the_grid(self, e, x, first, second):
        """The nodes without a coordinate are kept for the last grid seen:
        alternating grids, and an equal grid in a new array, must each
        give the oracle's values."""
        for grid in (first, second, first.copy(), second, second.copy()):
            assert_same(e, x, grid)


def test_kept_nodes_follow_the_grid_content():
    """The kept x-free values follow the grid's content, not the array
    object: here one array is scanned, shifted in place, and scanned
    again (as a freed grid may leave its id to the next one)."""
    e = parse_expr("x1*v^2 + sqrt(v + 2)", 1)
    grid = np.linspace(-1.0, 0.0, 21)
    for _ in range(3):
        assert_same(e, [0.7], grid)
        grid += 0.5


class TestBundled:
    @pytest.mark.parametrize("name", ["example_2_2", "example_3_2",
                                      "example_3_2_printedg2",
                                      "example_3_5"])
    def test_array_pass_taken_and_equal(self, name):
        spec = load_problem(name)
        rng = np.random.default_rng(3)
        for con in spec.constraints:
            if not con.expr.has_v:
                continue
            grid = np.linspace(con.lo, con.hi, spec.vgrid)
            for x in [np.zeros(2), *rng.uniform(-3, 3, size=(4, 2))]:
                _, fast = assert_same(con.expr, x.tolist(), grid)
                assert fast, (name, con.name, x)


# (expression over x1, point, scenarios, error message or None for values,
# whether the array pass gives the values)
PLANTED = [
    ("sqrt(v)", [0.5], np.linspace(-1, 1, 21),
     "sqrt of negative value in sqrt(v)", False),
    ("x1/v", [0.5], np.linspace(-1, 1, 21), "division by zero in 1/(v)",
     False),
    # 1/(1 + 1/0) would be a finite 0.0 in floats
    ("x1/(1 + 1/v)", [0.5], np.linspace(0, 1, 5),
     "division by zero in 1/(v)", False),
    ("1/(v - x1)", [0.5], np.linspace(-1, 1, 5),
     "division by zero in 1/(v - x1)", False),
    ("1/(v - x1)", [0.3], np.linspace(-1, 1, 5), None, True),
    ("(1e200*v)^3", [0.5], np.linspace(-1, 1, 5), "overflows", False),
    # inf - inf: NaN at every scenario, and no error
    ("abs(1e300*v)*abs(1e300*x1) - abs(1e300*v)*abs(1e300*x1)", [1.0],
     np.linspace(0.5, 1, 3), None, False),
    ("abs(1e300*v)*abs(1e300*x1)", [1.0], np.linspace(0.5, 1, 3), None,
     False),
    # a v-free fault, and a fault with v that the scalar code meets first
    ("v + sqrt(x1)", [-1.0], np.linspace(-1, 1, 5),
     "sqrt of negative value in sqrt(x1)", False),
    ("1/(v - v) + 1/(x1 - x1)", [1.0], np.linspace(-1, 1, 5),
     "division by zero in 1/(v - v)", False),
    # -0.0 against 0.0: the builtin max keeps the first
    ("max(v*x1, -v*x1)", [0.0], np.linspace(-1, 1, 5), None, True),
    ("max(-v*x1, v*x1)", [-0.0], np.array([1.0, -0.0, 0.0, -1.0]), None,
     True),
    ("(1/3)*x1*v^3 + sqrt(v + 2)*x1^2 - abs(v)", [1.7],
     np.linspace(-1, 1, 1001), None, True),
]


@pytest.mark.parametrize("text, x, grid, error, fast", PLANTED)
def test_planted(text, x, grid, error, fast):
    (kind, result), took = assert_same(parse_expr(text, 1), x, grid)
    if error is None:
        assert kind == "value"
    else:
        assert kind != "value" and error in result
    assert took == fast
