"""Differential test: compiled ``Expr.scalar_fn`` against a recursive walker.

``_eval_scalar`` below is the tree walker the compiled evaluator replaced,
except that a float power that overflows raises DomainError, as every
evaluator of the package now does, instead of OverflowError.  Both must
give bit-identical floats (compared through ``struct.pack``, so that -0.0
and NaN count) or raise the same exception with the same message.
"""

from __future__ import annotations

import struct
import sys
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genexpr import random_convex_expr, random_point, random_supported_expr
from robustkkt.funcdsl import (
    MAX_NESTING,
    DomainError,
    Expr,
    ScenarioMismatchError,
    eval_expr,
    parse_expr,
)


def _eval_scalar(e: Expr, xs, v) -> float:
    k = e.kind
    if k == "const":
        return float(e.value)
    if k == "coord":
        return float(xs[e.index - 1])
    if k == "uvar":
        return float(v)
    if k == "sum":
        return sum(_eval_scalar(c, xs, v) for c in e.children)
    if k == "prod":
        out = 1.0
        for c in e.children:
            out *= _eval_scalar(c, xs, v)
        return out
    if k == "pow":
        try:
            return _eval_scalar(e.children[0], xs, v) ** e.exponent
        except OverflowError:
            raise DomainError(f"{e} overflows") from None
    if k == "recip":
        d = _eval_scalar(e.children[0], xs, v)
        if d == 0.0:
            raise DomainError(f"division by zero in 1/({e.children[0]})")
        return 1.0 / d
    if k == "sqrt":
        a = _eval_scalar(e.children[0], xs, v)
        if a < 0.0:
            raise DomainError(f"sqrt of negative value in sqrt({e.children[0]})")
        return a ** 0.5
    if k == "abs":
        return abs(_eval_scalar(e.children[0], xs, v))
    if k == "max":
        return max(_eval_scalar(c, xs, v) for c in e.children)
    raise ValueError(f"unknown node kind {k}")


def _outcome(fn):
    try:
        return ("value", struct.pack("d", fn()))
    except (ArithmeticError, DomainError) as exc:
        return (type(exc), str(exc))


def assert_same(e: Expr, x, v=None):
    xs = np.asarray(x, dtype=float)
    oracle = _outcome(lambda: float(_eval_scalar(e, xs, v)))
    compiled = _outcome(lambda: eval_expr(e, x, v))
    assert compiled == oracle, (str(e), list(xs), v)
    return compiled


def _uses_v(e: Expr) -> bool:
    return e.kind == "uvar" or any(_uses_v(c) for c in e.children)


class TestGeneratedExpressions:
    def test_genexpr_at_random_points(self):
        rng = np.random.default_rng(11)
        for trial in range(150):
            dim = int(rng.integers(1, 5))
            e = (random_supported_expr(rng, dim) if trial % 2
                 else random_convex_expr(rng, dim))
            for _ in range(8):
                assert_same(e, random_point(rng, dim, scale=3.0))

    def test_scenario_scan_matches_walker(self, spec22, spec32, spec35):
        rng = np.random.default_rng(5)
        for spec in (spec22, spec32, spec35):
            for con in spec.constraints:
                if not con.expr.has_v:
                    continue
                x = random_point(rng, spec.dim)
                fn = partial(con.expr.scalar_fn,
                             np.asarray(x, dtype=float).tolist())
                for v in np.linspace(con.lo, con.hi, 41).tolist():
                    want = _eval_scalar(con.expr, np.asarray(x), v)
                    assert struct.pack("d", fn(v)) == struct.pack("d", want)


_LEAF = st.one_of(
    st.fractions(min_value=-5, max_value=5, max_denominator=7).map(
        lambda q: Expr("const", value=Fraction(q))),
    st.integers(1, 3).map(lambda k: Expr("coord", index=k)),
    st.just(Expr("uvar")),
)


def _node(children):
    many = st.lists(children, min_size=2, max_size=4).map(tuple)
    one = children.map(lambda c: (c,))
    return st.one_of(
        many.map(lambda cs: Expr("sum", children=cs)),
        many.map(lambda cs: Expr("prod", children=cs)),
        many.map(lambda cs: Expr("max", children=cs)),
        st.tuples(children, st.integers(2, 5)).map(
            lambda t: Expr("pow", children=(t[0],), exponent=t[1])),
        one.map(lambda cs: Expr("recip", children=cs)),
        one.map(lambda cs: Expr("sqrt", children=cs)),
        one.map(lambda cs: Expr("abs", children=cs)),
    )


_TREES = st.recursive(_LEAF, _node, max_leaves=24)
_COORD = st.one_of(st.floats(-4, 4, allow_subnormal=False),
                   st.sampled_from([0.0, -0.0, 1.0, -1.0]))


class TestHypothesisTrees:
    @settings(max_examples=400, deadline=None)
    @given(_TREES, st.lists(_COORD, min_size=3, max_size=3), _COORD)
    def test_bit_equal_or_same_error(self, e, x, v):
        assert e.has_v == _uses_v(e)
        assert_same(e, x, v if e.has_v else None)


class TestEdgeCases:
    def test_division_by_zero_message(self):
        e = parse_expr("1/(x1-x1)", 1)
        kind, msg = assert_same(e, [2.0])
        assert kind is DomainError and msg == "division by zero in 1/(x1 - x1)"

    def test_sqrt_of_negative_message(self):
        kind, msg = assert_same(parse_expr("sqrt(x1)", 1), [-0.5])
        assert kind is DomainError
        assert msg == "sqrt of negative value in sqrt(x1)"

    def test_overflow_raises_like_the_walker(self):
        kind, msg = assert_same(parse_expr("x1^400", 1), [1e10])
        assert kind is DomainError
        assert msg == "x1^400 overflows"

    def test_sum_of_negative_zeros(self):
        e = Expr("sum", children=(Expr("coord", index=1),
                                  Expr("coord", index=2)))
        assert assert_same(e, [-0.0, -0.0]) == ("value", struct.pack("d", 0.0))

    @pytest.mark.parametrize("opener, closer", [("abs(", ")"),
                                                ("x1 + 2/(", ")^3")])
    def test_nesting_at_the_limit_compiles(self, opener, closer):
        # The second pattern adds four tree levels per nesting level.
        depth = MAX_NESTING - 1
        e = parse_expr(opener * depth + "x1 - v" + closer * depth, 1)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(limit + 2000)  # for the recursive oracle only
        try:
            for x, v in ((0.25, 0.5), (-3.0, 1.0)):
                assert_same(e, [x], v)
        finally:
            sys.setrecursionlimit(limit)

    def test_errors_keep_evaluation_order(self):
        e = parse_expr("max(sqrt(x1), 1/(x1 + 1))", 1)
        kind, msg = assert_same(e, [-1.0])
        assert msg.startswith("sqrt of negative value")

    def test_compiled_once_per_node(self):
        e = parse_expr("x1^2 + v", 1)
        assert e.scalar_fn is e.scalar_fn
        with pytest.raises(ScenarioMismatchError):
            eval_expr(e, [1.0])
