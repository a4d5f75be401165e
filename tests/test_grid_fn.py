"""Differential tests of the grid code (``Expr.grid_fn``) against the
recursive grid walker it replaced (grid_oracle.py).

``eval_on_grid`` and ``eval_scenarios`` must be bit-equal to the walker,
compared as int64 views so that -0.0 and NaN count.  Where the walker
raises, the grid code raises the same exception class, except that a power
of Python floats that overflows, an OverflowError of the walker, is a
DomainError, as in every evaluator of the package.  The grid code assigns
each v-free node once before its scenario loop and does not recurse per
tree level.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import grid_oracle
from genexpr import random_supported_expr
from robustkkt.funcdsl import (
    MAX_NESTING,
    DomainError,
    Expr,
    eval_expr,
    eval_on_grid,
    eval_scenarios,
    parse_expr,
)
from robustkkt.robustfeas import UncertainConstraint, envelope_grid
from test_grid_scan import _VTREES
from test_scalar_fn import _COORD, _TREES


def _outcome(fn):
    try:
        return "value", np.asarray(fn(), dtype=float).view(np.int64).tolist()
    except (ArithmeticError, DomainError) as exc:
        return "raised", DomainError if isinstance(exc, OverflowError) \
            else type(exc)


def _oracle_scenarios(e: Expr, scenarios) -> np.ndarray:
    """The walker's eval_scenarios: the x-free tree at each scenario."""
    return np.array([grid_oracle._eval_grid(e, None, float(v))
                     for v in scenarios], dtype=float)


def assert_same_grid(e: Expr, X, v=None):
    """eval_on_grid agrees with the walker at one scenario (or none)."""
    with np.errstate(all="ignore"):
        want = _outcome(lambda: grid_oracle.eval_on_grid(e, X, v))
    got = _outcome(lambda: eval_on_grid(e, X, v))
    assert got == want, (str(e), v)
    return got


def assert_same_scenarios(e: Expr, scenarios):
    """eval_scenarios agrees with the walker at every scenario."""
    with np.errstate(all="ignore"):
        want = _outcome(lambda: _oracle_scenarios(e, scenarios))
    got = _outcome(lambda: eval_scenarios(e, scenarios))
    assert got == want, (str(e), list(scenarios))
    return got


def _grid(rng, dim, n=40, scale=3.0):
    """Random cells, a few of them with zero, -0.0 or integer coordinates."""
    X = rng.uniform(-scale, scale, size=(dim, n))
    X[:, : n // 4] = np.round(X[:, : n // 4])
    X[:, -2], X[:, -1] = 0.0, -0.0
    return X


_SCENARIO = st.one_of(_COORD, st.sampled_from([10.0, -10.0, 1e100, 1e-200]))


class TestHypothesisTrees:
    @settings(max_examples=300, deadline=None)
    @given(_TREES, _SCENARIO, st.integers(0, 2 ** 16))
    def test_eval_on_grid(self, e, v, seed):
        assert_same_grid(e, _grid(np.random.default_rng(seed), 3),
                         v if e.has_v else None)

    @settings(max_examples=300, deadline=None)
    @given(_VTREES, st.lists(_SCENARIO, min_size=1, max_size=8))
    def test_eval_scenarios(self, e, scenarios):
        assert_same_scenarios(e, scenarios)


class TestGeneratedExpressions:
    TEMPLATES = ["{e}", "({e})*v + v^2", "max({e}, v*x1) - abs(v)",
                 "sqrt({e} + v) + 1/(v - x2)"]

    def test_genexpr_on_grids(self):
        rng = np.random.default_rng(17)
        for trial in range(120):
            template = self.TEMPLATES[trial % len(self.TEMPLATES)]
            e = parse_expr(template.format(e=random_supported_expr(rng, 2)),
                           2)
            X = _grid(rng, 2)
            for v in (-1.0, 0.0, 0.5) if e.has_v else (None,):
                assert_same_grid(e, X, v)


class TestEdgeCases:
    def test_coord_free_subtrees_are_numpy_scalars(self):
        # sqrt(2) and max(sqrt(2), 1) are numpy scalars, not Python floats:
        # their powers overflow to inf instead of raising
        X = _grid(np.random.default_rng(3), 1)
        for text in ("sqrt(2)*x1", "max(sqrt(2), 1) + x1",
                     "sqrt(10)^800*x1 + 1", "1/sqrt(3) - x1*abs(x1)"):
            assert_same_grid(parse_expr(text, 1), X)
        got = assert_same_grid(parse_expr("sqrt(10)^800 + 0*x1", 1), X)
        assert got == ("value", np.full(40, np.inf).view(np.int64).tolist())
        for text in ("sqrt(2)*v", "sqrt(10)^800*v", "max(sqrt(2), v)"):
            assert_same_scenarios(parse_expr(text, 0), [-1.0, 0.0, 2.0])

    def test_power_of_v_raises_power_of_abs_v_overflows(self, spec32):
        X = np.array([[1.0, -2.0]])
        assert assert_same_grid(parse_expr("v^400*x1", 1), X, 10.0) == \
            ("raised", DomainError)
        got = assert_same_grid(parse_expr("abs(v)^400*x1", 1), X, 10.0)
        assert got == ("value", np.array([np.inf, -np.inf]).view(np.int64)
                       .tolist())
        assert assert_same_scenarios(parse_expr("v^400", 0), [1.0, 10.0]) \
            == ("raised", DomainError)
        got = assert_same_scenarios(parse_expr("abs(v)^400", 0), [1.0, 10.0])
        assert got == ("value", np.array([1.0, np.inf]).view(np.int64)
                       .tolist())
        # the envelope raises too: the grid code keeps v a Python float
        with pytest.raises(DomainError):
            envelope_grid(spec32, UncertainConstraint(
                "g", parse_expr("v^400*x1", 1), scenarios=(1.0, 10.0)), X)

    def test_sums_to_negative_zero(self):
        # a left fold with no leading 0: -0.0 + -0.0 is -0.0
        minus_zero = np.array([-0.0]).view(np.int64).tolist()
        got = assert_same_grid(parse_expr("x1 + x2", 2), np.array([[-0.0],
                                                                  [-0.0]]))
        assert got == ("value", minus_zero)
        got = assert_same_grid(parse_expr("x1 + v", 1), np.array([[-0.0]]),
                               -0.0)
        assert got == ("value", minus_zero)
        v_plus_v = Expr("sum", children=(Expr("uvar"), Expr("uvar")))
        assert assert_same_scenarios(v_plus_v, [-0.0]) == ("value",
                                                           minus_zero)
        minus_v = Expr("prod", children=(Expr("const", value=Fraction(-1)),
                                         Expr("uvar")))
        assert assert_same_scenarios(
            Expr("sum", children=(minus_v, minus_v)), [0.0]) == \
            ("value", minus_zero)

    def test_sums_are_left_folds_in_every_target(self):
        # 1e16 + 1 rounds to 1e16, so a plain left fold cancels to 0.0,
        # where a compensated sum (math.fsum, and builtin sum from Python
        # 3.12 on) gives 1.0; the scalar and scan code must not depend on
        # the interpreter's sum
        assert math.fsum([1e16, 1.0, -1e16]) == 1.0
        x = [1e16, 1.0]
        e = parse_expr("x1 + x2 - x1", 2)
        assert eval_expr(e, x) == 0.0
        assert eval_on_grid(e, np.array([x]).T).tolist() == [0.0]
        ev = parse_expr("x1 + x2*v - x1", 2)
        assert ev.scan_fn(x, np.array([1.0, 2.0])).tolist() == [0.0, 2.0]
        assert eval_expr(ev, x, 1.0) == 0.0

    def test_trees_of_one_shape_keep_their_constants(self):
        # both trees compile to the same source and share its code; the
        # constants are each tree's own closure values
        X = np.array([[1.0, 2.0]])
        a, b = parse_expr("2*x1 + v", 1), parse_expr("3*x1 + v", 1)
        assert eval_on_grid(a, X, 1.0).tolist() == [3.0, 5.0]
        assert eval_on_grid(b, X, 1.0).tolist() == [4.0, 7.0]
        assert eval_expr(b, [2.0], 1.0) == 7.0
        assert eval_expr(a, [2.0], 1.0) == 5.0

    @pytest.mark.parametrize("opener, closer", [("abs(", ")"),
                                                ("x1 + 2/(", ")^3")])
    def test_deep_tree_does_not_recurse(self, opener, closer, spec32):
        # The second pattern adds four tree levels per nesting level.
        depth = MAX_NESTING - 1
        e = parse_expr(opener * depth + "x1 - v" + closer * depth, 1)
        x_free = parse_expr(opener.replace("x1", "v") * depth + "v - 1"
                            + closer * depth, 0)
        X = np.array([[0.25, -3.0, 0.0]])
        frames, f = 0, sys._getframe()
        while f is not None:
            frames, f = frames + 1, f.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(frames + 60)  # far fewer than the tree's levels
        try:
            with np.errstate(all="ignore"):
                got = [eval_on_grid(e, X, 0.5),
                       envelope_grid(spec32, UncertainConstraint(
                           "g", e, scenarios=(0.5, -1.0)), X),
                       eval_scenarios(x_free, [0.5, 2.0])]
        finally:
            sys.setrecursionlimit(limit)
        sys.setrecursionlimit(limit + 2000)  # for the recursive oracle only
        try:
            assert assert_same_grid(e, X, 0.5)[1] == \
                got[0].view(np.int64).tolist()
            assert assert_same_scenarios(x_free, [0.5, 2.0])[1] == \
                got[2].view(np.int64).tolist()
            want = np.full(X.shape[1], -np.inf)
            with np.errstate(all="ignore"):
                for v in (0.5, -1.0):
                    want = np.fmax(want, grid_oracle.eval_on_grid(e, X, v))
            assert got[1].view(np.int64).tolist() == \
                want.view(np.int64).tolist()
        finally:
            sys.setrecursionlimit(limit)
