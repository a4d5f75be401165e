"""Differential tests of the point walker: ``limiting_subdiff``, which
reads the compiled walk ``Expr.walk_fn``, against the recursive walk it
replaced (``walker_oracle.PointWalk``) and against the three walkers that
walk replaced (walker_oracle.py).

Sets must be bit-equal, vertices compared as int64 views so that -0.0 and
NaN count, with equal rules and exactness, in both modes.  Where
``PointWalk`` raises, the walker raises the same exception class with the
same message; where the three walkers raise, the walker raises the same
exception class, except that a reciprocal slope whose square underflows,
a ZeroDivisionError in the oracle, and a float power that overflows, an
OverflowError in the oracle, are DomainErrors of the walker.  A max whose
maximum is NaN, an IndexError of every oracle, is a DomainError of the
walker that names the node; so is a max with a NaN branch after the first,
which the oracles drop.  Points sit on kinks, max ties and the
sqrt(0) and 1/0 boundaries as well as at generic places.  The compiled
walk of an abs or max walks only what it selects, as the oracles do, so
the faults and refusals of the branches it does not select never show.
"""

from __future__ import annotations

import inspect
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import walker_oracle
from genexpr import _affine, random_convex_expr, random_point, \
    random_supported_expr
from robustkkt.certify import ystar_grid
from robustkkt.cli import load_problem
from robustkkt.funcdsl import (
    MAX_NESTING,
    DomainError,
    Expr,
    UnsupportedStructureError,
    _nodes,
    eval_expr,
    parse_expr,
)
from robustkkt.robustfeas import scenario_envelope
from robustkkt.subdiff import Scalarization, direct_subdiff, \
    limiting_subdiff, sup_rule
from test_scalar_fn import _node


def _bits(a) -> bytes:
    return np.ascontiguousarray(a, dtype=float).view(np.int64).tobytes()


def _message(fn):
    try:
        return "value", fn()
    except Exception as exc:  # the class and message are what must match
        return "raised", type(exc), str(exc)


def _outcome(fn):
    return _message(fn)[:2]


def _expected(outcome):
    """The walker's outcome where the oracle's is ``outcome``."""
    return ("raised", DomainError) if outcome in (
        ("raised", ZeroDivisionError), ("raised", OverflowError),
        ("raised", IndexError)) else outcome


def _set_key(res):
    return (res.mode, res.exactness, res.rules,
            [(c.vertices.shape, _bits(c.vertices)) for c in res.set.components])


def assert_same(e: Expr, x, v=None):
    """Walker and oracles agree at (x, v); returns the limiting outcome of
    the three walkers."""
    seen = []
    with np.errstate(all="ignore"):  # 1/u^2 may overflow, in all
        for mode in ("limiting", "hull"):
            want = _outcome(lambda: _set_key(
                walker_oracle.limiting_subdiff(e, x, v, mode)))
            got = _message(lambda: _set_key(limiting_subdiff(e, x, v, mode)))
            walked = _message(lambda: _set_key(
                walker_oracle.point_walk_subdiff(e, x, v, mode)))
            nan_max = got[:2] == ("raised", DomainError) and got[2].startswith(
                "NaN maximum in max(")
            # the oracles drop a NaN branch that is not the first
            dropped = nan_max and walked[:2] != ("raised", IndexError)
            if dropped:
                assert _nan_branch(e, x, v, got[2]), (str(e), list(x), v)
            elif walked[:2] == ("raised", IndexError):  # a NaN maximum
                assert nan_max, (str(e), list(x), got)
            else:
                assert got == walked, (str(e), list(x), v, mode)
            assert dropped or got[:2] == _expected(want), (
                str(e), list(x), v, mode)
            seen.append(want)
    return seen[0]


def _nan_branch(e: Expr, x, v, message: str) -> bool:
    """Whether a max node of e that message names has a NaN branch at
    (x, v)."""
    xl = [float(t) for t in x]
    return any(math.isnan(c.scalar_fn(xl, v)) for n in _nodes(e)
               if n.kind == "max" and message == f"NaN maximum in {n}"
               for c in n.children)


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
                                    float(v) if con.expr.has_v else None)


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

    def test_zero_factor_keeps_its_atom_apart(self):
        """A hand-built product -1*0*x1 in a sum printed as "- 0", so the
        kink max(1 - 0*x1, 1) shared the atom key of the x-free
        max(1 - 0, 1): the recursive walk gave a set, the compiled walk
        refused the product."""
        x1, x2 = Expr("coord", index=1), Expr("coord", index=2)

        def tied(*factors):
            return Expr("max", children=(Expr("sum", children=(
                _const(1), Expr("prod", children=(_const(-1), *factors)))),
                _const(1)))

        e = Expr("sum", children=(tied(_const(0)), Expr("prod", children=(
            tied(_const(0), x1), Expr("abs", children=(x2,))))))
        assert str(e) == "max(1 - 0, 1) + max(1 - 0*x1, 1)*abs(x2)"
        assert assert_same(e, [0.0, 0.0]) == (
            "raised", UnsupportedStructureError)

    def test_reciprocal_slope_overflow_is_a_domain_fault(self):
        e = parse_expr("1/x1 + x1", 1)
        # the oracle's outcome; assert_same holds the walker to DomainError
        assert assert_same(e, [1e-200]) == ("raised", ZeroDivisionError)
        with pytest.raises(DomainError, match=r"slope of 1/\(x1\) overflows"):
            limiting_subdiff(e, [1e-200])
        # one square short of underflow, both roundings stay as they were
        assert assert_same(e, [1e-150])[0] == "value"


# branches that fault, refuse or raise at many points of _AT
_TROUBLE = st.sampled_from([
    "sqrt(x1)", "1/(x1 - x1)", "1/x1 + x2", "abs(x1)*abs(x2)",
    "abs(abs(x1) - x2)", "max(x1, -x1)*abs(x2)", "sqrt(x1 - x2)",
    "x1^400", "abs(sqrt(x2))*x1"]).map(lambda text: parse_expr(text, 2))


def _const(q) -> Expr:
    return Expr("const", value=Fraction(q))


class TestEagerWalk:
    """The max branches that the walk does not select fault, refuse or
    raise at the point; the walk never meets that, as the oracles do not."""

    @pytest.mark.parametrize("text, x", [
        ("max(x1 + 1, sqrt(x1))", [0.0]),
        ("max(x1 + 1, 1/(x1 - x1))", [0.0]),
        ("max(1/x1, x1 + 1) + abs(x1)", [0.0]),
        ("max(x1 + 5, abs(x1)*abs(x2))", [0.0, 0.0]),
        ("max(abs(abs(x1) - x2), x1 + 5) + abs(x2)", [0.0, 0.0]),
        ("max(x1 + 5, abs(x1)*abs(x2), 5 + x1)", [0.0, 0.0]),
        ("max(x1 + 1, x1^400)", [1e10]),
        ("2*abs(sqrt(x1)) - 2*abs(sqrt(x1)) + x2", [0.0, 1.0]),
    ])
    def test_branch_not_selected(self, text, x):
        assert_same(parse_expr(text, len(x)), x)

    @settings(max_examples=300, deadline=None)
    @given(_TREES, _TROUBLE, st.sampled_from([-10, 0, 10]),
           st.lists(_AT, min_size=2, max_size=2), _AT, st.integers(0, 2))
    def test_trouble_in_a_branch(self, t, bad, shift, x, v, wrap):
        """max(t + shift, bad), alone, in a sum or in a product: bad
        loses, wins or ties."""
        e = Expr("max", children=(Expr("sum", children=(t, _const(shift))),
                                  bad))
        e = [e, Expr("sum", children=(e, t)),
             Expr("prod", children=(_const(2), e, t))][wrap]
        assert_same(e, x, v if e.has_v else None)

    @settings(max_examples=200, deadline=None)
    @given(_TROUBLE, _TREES, st.sampled_from([0, 1, -0.5]),
           st.lists(_AT, min_size=2, max_size=2), _AT)
    def test_fault_inside_a_kink_of_zero_coefficient(self, bad, rest, c, x,
                                                      v):
        """c*abs(bad - bad(x)) - c*abs(bad - bad(x)) + rest: a kink at the
        point whose coefficient is zero, its argument's faults inside."""
        try:
            level = eval_expr(bad, x)
        except DomainError:
            assume(False)
        assume(math.isfinite(level))
        kink = Expr("abs", children=(Expr("sum", children=(
            bad, _const(-Fraction(level)))),))
        e = Expr("sum", children=(Expr("prod", children=(_const(c), kink)),
                                  Expr("prod", children=(_const(-c), kink)),
                                  rest))
        assert_same(e, x, v if e.has_v else None)


def test_deep_tree_walks_without_recursion():
    """Neither limiting_subdiff nor a Scalarization nests a Python frame
    per tree level: a tree of 95 levels, parsed afresh, compiles and walks
    with 40 frames to spare."""
    text = "x1 + 1"
    for _ in range(95):
        text = f"sqrt({text}) + 1"
    e = parse_expr.__wrapped__(text, 1)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 40)
    try:
        got = limiting_subdiff(e, [0.5])
        scal = Scalarization([e], [0.5])
        one = scal([0.5])
        groups = scal.groups(np.array([[0.5], [1.0]]))
    finally:
        sys.setrecursionlimit(limit)
    assert _set_key(got) == _set_key(
        walker_oracle.point_walk_subdiff(e, [0.5]))
    assert _set_key(one) == _set_key(direct_subdiff([0.5], [e], [0.5]))
    assert sorted(rows.tolist() for rows, _ in groups) == [[0], [1]]
    assert all(type(comps) is list for _, comps in groups)


@pytest.mark.parametrize("level", ["abs({}) + 1", "max({}, x1) + 1"],
                         ids=["abs", "max"])
def test_nested_selections_walk_within_300_frames(level):
    """The walk of an abs or max calls its selected child's walk code, so
    it nests a few frames per nested abs or max: a tree of MAX_NESTING - 2
    of them, parsed afresh, compiles and walks with 300 frames to spare."""
    text = "x1 + 1"
    for _ in range(MAX_NESTING - 2):
        text = level.format(text)
    e = parse_expr.__wrapped__(text, 1)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 300)
    try:
        got = limiting_subdiff(e, [0.5])
        one = Scalarization([e], [0.5])([0.5])
        groups = Scalarization([e], [0.5]).groups(np.array([[0.5], [1.0]]))
    finally:
        sys.setrecursionlimit(limit)
    assert _set_key(got) == _set_key(
        walker_oracle.point_walk_subdiff(e, [0.5]))
    assert _set_key(one) == _set_key(direct_subdiff([0.5], [e], [0.5]))
    assert sorted(rows.tolist() for rows, _ in groups) == [[0], [1]]


def test_branch_not_selected_is_not_walked():
    """At ex 3.2's g2, x = (0, 0), v = 1, the branch v - 2 wins: the
    losing branch's scalar code runs, its walk code is neither compiled
    nor called (``walk_fn`` is built on first access)."""
    e = parse_expr.__wrapped__("max(-3*abs(x1) + v*x2 - 2, v - 2)", 2)
    lose, win = e.children
    got = limiting_subdiff(e, [0.0, 0.0], 1.0)
    assert _set_key(got) == _set_key(
        walker_oracle.point_walk_subdiff(e, [0.0, 0.0], 1.0))
    assert "walk_fn" in win.__dict__ and "scalar_fn" in lose.__dict__
    assert "walk_fn" not in lose.__dict__


def test_nan_maximum_is_a_domain_error():
    """inf - inf at x1 = 1e-320: the walk refuses the NaN maximum, naming
    the node, where the recursive walk raised an IndexError."""
    e = parse_expr("max(1/x1 - 1/x1, x2)", 2)
    with pytest.raises(DomainError, match=r"^NaN maximum in max\(1/x1 - "):
        limiting_subdiff(e, [1e-320, 0.0])
    assert assert_same(e, [1e-320, 0.0]) == ("raised", IndexError)


def test_nan_branch_after_the_first_is_a_domain_error():
    """The same NaN branch last: the oracles' builtin max keeps x2 and
    drops it; the walk refuses it as it does when it comes first."""
    e = parse_expr("max(x2, 1/x1 - 1/x1)", 2)
    with pytest.raises(DomainError, match=r"^NaN maximum in max\(x2, "):
        limiting_subdiff(e, [1e-320, 0.0])
    assert assert_same(e, [1e-320, 0.0])[0] == "value"


def test_merged_atom_leaves_the_operand_walks_as_they_were():
    """Merging the atoms of one key makes a new atom: the lone abs(x1), in
    a linear context, keeps ctx_linear in its own walk, while the sum's
    merged atom reads False from x2*abs(x1)."""
    top = parse_expr("abs(x1) + x2*abs(x1)", 2).walk_fn([0.0, 0.0], None,
                                                          1e-9, True)
    assert top[6][0][4]["abs(x1)"].ctx_linear
    assert not top[4]["abs(x1)"].ctx_linear


# Exactness of each bundled problem at the origin: each objective, then
# each constraint's sup rule over its active scenarios, in limiting and
# then hull mode, then the scalarization at each y* of ystar_grid(spec, 3);
# "e" for exact, "o" for outer-estimate.
EXACTNESS = {
    "example_2_2": "e" * 19,
    "example_2_3": "e" * 19,
    "example_3_2": "eeooooeoeeooooooooo",
    "example_3_2_printedg2": "eeooooeoooooooooooo",
    "example_3_5": "e" * 19,
}


@pytest.mark.parametrize("name", EXACTNESS)
def test_bundled_exactness_labels(name):
    spec = load_problem(name)
    x = np.zeros(spec.dim)
    labels = []
    for f in spec.objectives:
        labels += [limiting_subdiff(f, x, None, mode, spec.kink_tol).exactness
                   for mode in ("limiting", "hull")]
    for con in spec.constraints:
        _, actives = scenario_envelope(con, x, spec.vgrid)
        labels += [sup_rule(con, x, actives, mode, spec.kink_tol).exactness
                   for mode in ("limiting", "hull")]
    labels += [direct_subdiff(y, spec.objectives, x).exactness
               for y in ystar_grid(spec, 3)]
    assert "".join(t[0] for t in labels) == EXACTNESS[name]
