"""Differential tests of the point walker: ``limiting_subdiff``, one
selection-aware walk per call, against the three walkers it replaced
(walker_oracle.py).

Sets must be bit-equal, vertices compared as int64 views so that -0.0 and
NaN count, with equal rules and exactness, in both modes; where the
oracle raises, the walker raises the same
exception class, except that a reciprocal slope whose square underflows,
a ZeroDivisionError in the oracle, and a float power that overflows, an
OverflowError in the oracle, are DomainErrors of the walker.  Points
sit on kinks, max ties and the sqrt(0) and 1/0 boundaries as well as at
generic places.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import walker_oracle
from genexpr import _affine, random_convex_expr, random_point, \
    random_supported_expr
from robustkkt.funcdsl import (
    DomainError,
    Expr,
    UnsupportedStructureError,
    eval_expr,
    parse_expr,
)
from robustkkt.subdiff import limiting_subdiff
from test_scalar_fn import _node


def _bits(a) -> bytes:
    return np.ascontiguousarray(a, dtype=float).view(np.int64).tobytes()


def _outcome(fn):
    try:
        return "value", fn()
    except Exception as exc:  # the class is what must match
        return "raised", type(exc)


def _expected(outcome):
    """The walker's outcome where the oracle's is ``outcome``."""
    return ("raised", DomainError) if outcome in (
        ("raised", ZeroDivisionError), ("raised", OverflowError)) else outcome


def _set_key(res):
    return (res.mode, res.exactness, res.rules,
            [(c.vertices.shape, _bits(c.vertices)) for c in res.set.components])


def assert_same(e: Expr, x, v=None):
    """Walker and oracle agree at (x, v); returns the limiting outcomes."""
    seen = []
    with np.errstate(all="ignore"):  # 1/u^2 may overflow, in both
        for mode in ("limiting", "hull"):
            want = _outcome(lambda: _set_key(
                walker_oracle.limiting_subdiff(e, x, v, mode)))
            got = _outcome(lambda: _set_key(limiting_subdiff(e, x, v, mode)))
            assert got == _expected(want), (str(e), list(x), v, mode)
            seen.append(want)
    return seen[0]


def _boundary_expr(rng, dim: int, x) -> Expr:
    """Terms whose kinks, ties, sqrt and reciprocal arguments vanish at x,
    next to terms that are smooth there."""
    coords = list(range(1, dim + 1))
    terms = []
    for _ in range(int(rng.integers(1, 4))):
        chunk = list(rng.choice(coords, size=min(2, dim), replace=False))
        lin = _affine(rng, chunk, x)
        c = f"{rng.uniform(0.3, 2.0) * rng.choice([-1.0, 1.0]):.4f}"
        terms.append(rng.choice([
            f"{c}*abs({lin})",
            f"{c}*max({lin}, {_affine(rng, chunk, x)})",
            f"{c}*abs(sqrt({lin}^2))",
            f"{c}*sqrt(abs({lin}))",
            f"{c}*abs({lin})*({_affine(rng, chunk)})",
            f"{c}*abs({lin})*abs({_affine(rng, chunk, x)})",
            f"{c}/(abs({lin}) + {rng.uniform(1.0, 2.0):.4f})",
            f"{c}*abs(1/({_affine(rng, chunk)}) - 1/({_affine(rng, chunk)}))",
            f"{c}*sqrt({lin})",
            f"{c}/({lin})",
            f"{c}*x{chunk[0]}^2",
        ]))
    return parse_expr(" + ".join(terms), dim)


class TestGeneratedExpressions:
    def test_genexpr_at_random_and_kink_points(self):
        rng = np.random.default_rng(29)
        for trial in range(120):
            dim = int(rng.integers(1, 4))
            x = np.round(random_point(rng, dim), 2)
            through = x if trial % 3 else None
            e = (random_convex_expr(rng, dim) if trial % 4 == 0 else
                 random_supported_expr(rng, dim, through=through))
            assert_same(e, x)
            assert_same(e, random_point(rng, dim))

    def test_boundary_terms(self):
        rng = np.random.default_rng(31)
        outcomes = set()
        for _ in range(150):
            dim = int(rng.integers(1, 3))
            x = np.round(random_point(rng, dim), 1)
            kind, value = assert_same(_boundary_expr(rng, dim, x), x)
            outcomes.add(value if kind == "raised" else kind)
        # the boundaries are really met
        assert {"value", DomainError, UnsupportedStructureError} <= outcomes

    def test_scenario_constraints(self, spec22, spec32, spec35):
        rng = np.random.default_rng(37)
        for spec in (spec22, spec32, spec35):
            for con in spec.constraints:
                lo, hi = (con.lo, con.hi) if con.lo is not None else (-1, 1)
                for v in [lo, hi, 0.0, *rng.uniform(lo, hi, 3)]:
                    for x in (np.zeros(spec.dim),
                              random_point(rng, spec.dim)):
                        assert_same(con.expr, x,
                                    float(v) if con.has_uncertainty else None)


_LEAF = st.one_of(
    st.fractions(min_value=-3, max_value=3, max_denominator=2).map(
        lambda q: Expr("const", value=Fraction(q))),
    st.integers(1, 2).map(lambda k: Expr("coord", index=k)),
    st.just(Expr("uvar")),
)
_TREES = st.recursive(_LEAF, _node, max_leaves=16)
# mostly few values, so that kinks, ties and zero denominators are common
_AT = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.0, -3.0]),
                st.floats(-3, 3, allow_subnormal=False))


class TestHypothesisTrees:
    @settings(max_examples=300, deadline=None)
    @given(_TREES, st.lists(_AT, min_size=2, max_size=2), _AT)
    def test_same_sets_gradients_and_errors(self, e, x, v):
        assert_same(e, x, v if e.has_v else None)

    @settings(max_examples=300, deadline=None)
    @given(_TREES, _TREES, st.lists(_AT, min_size=2, max_size=2), _AT,
           st.booleans())
    def test_kink_placed_at_the_point(self, t, rest, x, v, use_abs):
        """abs(t - t(x)) or max(t, t(x)), plus rest: an active atom whose
        argument is a whole generated tree."""
        try:
            level = eval_expr(t, x, v if t.has_v else None)
        except (ArithmeticError, DomainError):
            assume(False)
        assume(math.isfinite(level))
        if use_abs:
            shifted = Expr("sum", children=(
                t, Expr("const", value=-Fraction(level))))
            atom = Expr("abs", children=(shifted,))
        else:
            atom = Expr("max", children=(
                t, Expr("const", value=Fraction(level))))
        e = Expr("sum", children=(atom, rest))
        assert_same(e, x, v if e.has_v else None)


class TestEdgeCases:
    def test_zero_coefficient_kink_keeps_its_domain_fault_lazy(self):
        e = parse_expr("abs(sqrt(x1)) - abs(sqrt(x1))", 1)
        kind, _ = assert_same(e, [0.0])
        assert kind == "value"
        res = limiting_subdiff(e, [0.0])
        assert [c.vertices.tolist() for c in res.set.components] == [[[0.0]]]
        with pytest.raises(DomainError):
            limiting_subdiff(parse_expr("abs(sqrt(x1))", 1), [0.0])

    @pytest.mark.parametrize("text, x, error", [
        ("abs(abs(x1) - x2)", [0.0, 0.0], UnsupportedStructureError),
        ("max(x1, abs(x2)) + 1", [0.0, 0.0], UnsupportedStructureError),
        ("abs(x1)*abs(x2)", [0.0, 0.0], UnsupportedStructureError),
        # a refusal of structure outranks an earlier domain fault
        ("sqrt(x1 - x1) + abs(x1)*abs(x2)", [0.0, 0.0],
         UnsupportedStructureError),
        ("1/(x1 - x2) + abs(x1)", [1.0, 1.0], DomainError),
        ("abs(x1 - v)", [0.5], None),
    ])
    def test_refusals_match(self, text, x, error):
        e = parse_expr(text, len(x))
        v = 0.5 if e.has_v else None
        kind, value = assert_same(e, x, v)
        if error is not None:
            assert (kind, value) == ("raised", error)
        else:
            assert kind == "value"

    def test_reciprocal_slope_overflow_is_a_domain_fault(self):
        e = parse_expr("1/x1 + x1", 1)
        # the oracle's outcome; assert_same holds the walker to DomainError
        assert assert_same(e, [1e-200]) == ("raised", ZeroDivisionError)
        with pytest.raises(DomainError, match=r"slope of 1/\(x1\) overflows"):
            limiting_subdiff(e, [1e-200])
        # one square short of underflow, both roundings stay as they were
        assert assert_same(e, [1e-150])[0] == "value"
