"""Differential tests of the grid scan against the one it replaced
(grid_oracle.py).

``envelope_grid``, which evaluates each v-free subtree once per grid, must
be bit-equal to the scenario-by-scenario scan, compared as int64 views so
that -0.0 and NaN count.  ``feasibility_mask``, which decides cells from
the hull bound and rescans the rest, must equal the old mask cell for cell.
Inputs: the bundled constraints, ``tests/genexpr.py`` and hypothesis trees,
branches that are not separable, two features, finite scenario lists, NaN
at some scenarios or cells, and cells right at the feasibility tolerance,
inside the rounding band of the hull bound.  Where the old scan raises (a
float power overflows), the new one raises the same exception class.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import grid_oracle
from genexpr import random_supported_expr
from robustkkt import robustfeas
from robustkkt.cli import load_problem
from robustkkt.funcdsl import Expr, parse_expr
from robustkkt.robustfeas import (
    ProblemSpec,
    UncertainConstraint,
    envelope_grid,
    feasibility_mask,
)
from robustkkt.setcalc import ConeSpec, OmegaSpec
from test_scalar_fn import _TREES, _node


def _spec(exprs, dim, scenarios=None, vgrid=41, feas_tol=1e-8):
    cons = []
    for i, e in enumerate(exprs):
        e = parse_expr(e, dim) if isinstance(e, str) else e
        if scenarios is None:
            cons.append(UncertainConstraint(f"g{i + 1}", e, -1.0, 1.0))
        else:
            cons.append(UncertainConstraint(f"g{i + 1}", e,
                                            scenarios=tuple(scenarios)))
    return ProblemSpec(
        dim=dim, objective_names=("f1",), objectives=(parse_expr("x1", dim),),
        constraints=tuple(cons), cone=ConeSpec(pattern=(1,)),
        omega=OmegaSpec.whole(dim), theta=np.zeros(1), feas_tol=feas_tol,
        vgrid=vgrid)


def _grid(rng, dim, n=60, scale=2.0):
    """Random cells, a few of them with zero or integer coordinates."""
    X = rng.uniform(-scale, scale, size=(dim, n))
    X[:, : n // 6] = np.round(X[:, : n // 6])
    return X


def _outcome(fn):
    try:
        return "value", fn()
    except ArithmeticError as exc:
        return "raised", type(exc)


def assert_same(spec, X, tol=None):
    """Bit-equal envelopes and equal masks, with tol as the spec's
    feas_tol if given; returns the cells rescanned."""
    if tol is not None:
        spec = replace(spec, feas_tol=tol)
    rescanned = []
    scan = robustfeas.envelope_grid

    def counting(spec, con, X):
        rescanned.append(X.shape[1])
        return scan(spec, con, X)

    with np.errstate(all="ignore"):
        for con in spec.constraints:
            want = _outcome(lambda: grid_oracle.envelope_grid(
                spec, con, X).view(np.int64).tolist())
            got = _outcome(lambda: envelope_grid(
                spec, con, X).view(np.int64).tolist())
            assert got == want, str(con.expr)
        want = _outcome(
            lambda: grid_oracle.feasibility_mask(spec, X).tolist())
        robustfeas.envelope_grid = counting
        try:
            got = _outcome(lambda: feasibility_mask(spec, X).tolist())
        finally:
            robustfeas.envelope_grid = scan
    assert got == want, [str(c.expr) for c in spec.constraints]
    return sum(rescanned)


def _pruned(spec) -> list[bool]:
    X = np.zeros((spec.dim, 1))
    with np.errstate(all="ignore"):
        return [robustfeas._hull_bound(spec, con, X) is not None
                for con in spec.constraints]


class TestBundled:
    @pytest.mark.parametrize("name", ["example_2_2", "example_3_2",
                                      "example_3_2_printedg2",
                                      "example_3_5"])
    def test_every_constraint_pruned_and_equal(self, name):
        spec = load_problem(name)
        assert _pruned(spec) == [True, True]
        g1, g2 = np.meshgrid(np.linspace(-5, 3, 81), np.linspace(-5, 5, 81))
        X = np.vstack([g1.ravel(), g2.ravel()])
        assert assert_same(spec, X) == 0

    def test_cells_at_the_tolerance(self, spec22):
        """Where the hull bound P exceeds the full scan F in the last bits,
        a tolerance equal to F puts the cell inside the band: the full scan
        calls it feasible, and only the rescan can tell."""
        spec = spec22
        g1, g2 = np.meshgrid(np.linspace(-5, 3, 41), np.linspace(-5, 5, 41))
        X = np.vstack([g1.ravel(), g2.ravel()])
        checked = 0
        for con in spec.constraints:
            one = replace(spec, constraints=(con,))
            F = grid_oracle.envelope_grid(one, con, X)
            P, _ = robustfeas._hull_bound(one, con, X)
            for t in np.flatnonzero(P > F)[:2]:
                assert assert_same(one, X, tol=float(F[t])) > 0
                checked += 1
        assert checked > 0


SEPARABLE = ["{e} + ({a})*x1 + {b}", "max({e} + ({a})*x2, {b} - 1)",
             "({a})*abs(x1 - x2) - x1*x2/4 + {b} + {e}"]
FEATURES = ["v", "v^2", "abs(v)", "v^3 - v", "1/(v + 2)", "sqrt(v + 1)"]
OFFSETS = ["abs(v)", "-v^2", "v/4", "max(v, 0)", "-1/(v + 3)"]
NOT_SEPARABLE = ["abs({e} + v*x1)", "sqrt(abs(x1 - v) + {e}^2)",
                 "1/(2 + abs(x2*v)) + {e}", "(x1 + v)*x2 + {e}",
                 "max({e}, x1 - v) + x2"]
TWO_FEATURES = ["{e} + v*x1 + v^2*x2", "max(v*x1 + abs(v)*x2, {e})"]


class TestGeneratedExpressions:
    def _cases(self, rng, templates, n):
        for _ in range(n):
            e = random_supported_expr(rng, 2)
            text = str(rng.choice(templates)).format(
                e=f"({e})", a=rng.choice(FEATURES), b=rng.choice(OFFSETS))
            yield parse_expr(text, 2)

    def test_separable(self):
        rng = np.random.default_rng(41)
        for e in self._cases(rng, SEPARABLE, 40):
            spec = _spec([e], 2)
            assert _pruned(spec) == [True], str(e)
            assert_same(spec, _grid(rng, 2))

    def test_not_separable_takes_the_full_scan(self):
        rng = np.random.default_rng(43)
        for e in self._cases(rng, NOT_SEPARABLE, 25):
            spec = _spec([e], 2)
            assert _pruned(spec) == [False], str(e)
            assert assert_same(spec, _grid(rng, 2)) == 60

    def test_two_features_take_the_full_scan(self):
        rng = np.random.default_rng(47)
        for e in self._cases(rng, TWO_FEATURES, 10):
            spec = _spec([e], 2)
            assert _pruned(spec) == [False], str(e)
            assert_same(spec, _grid(rng, 2))

    def test_several_constraints_rescan_only_feasible_cells(self):
        rng = np.random.default_rng(53)
        exprs = list(self._cases(rng, SEPARABLE + NOT_SEPARABLE, 30))
        for k in range(0, 30, 3):
            assert_same(_spec(exprs[k:k + 3], 2), _grid(rng, 2, n=200))

    def test_finite_scenario_lists(self):
        rng = np.random.default_rng(59)
        for scenarios in ([-1.0, 0.5], [2.0], [0.25, -3.0, 1.0, 1.0, 0.0]):
            for e in self._cases(rng, SEPARABLE + NOT_SEPARABLE, 8):
                assert_same(_spec([e], 2, scenarios), _grid(rng, 2))


class TestNaN:
    def test_nan_scenarios_are_skipped(self):
        # 1/v and sqrt(v) are NaN at v = 0 and v < 0, at every cell
        spec = _spec(["x1/v + x2 - sqrt(v)"], 2,
                     scenarios=[-1.0, 0.0, 0.5, 2.0])
        assert _pruned(spec) == [True]
        rng = np.random.default_rng(61)
        assert assert_same(spec, _grid(rng, 2)) == 0

    def test_all_scenarios_nan(self):
        spec = _spec(["x1*sqrt(v) + x2"], 2, scenarios=[-1.0, -2.0])
        assert _pruned(spec) == [False]
        assert_same(spec, _grid(np.random.default_rng(67), 2))

    def test_infinite_factor_takes_the_full_scan(self):
        spec = _spec(["x1/v + x2"], 2, scenarios=[1e-320, 1.0])
        assert _pruned(spec) == [False]
        assert_same(spec, _grid(np.random.default_rng(71), 2))

    def test_nan_cells_are_rescanned(self):
        spec = _spec(["sqrt(x1)*v + 1/x2 - v^2", "max(1/(x1*x2), v)"], 2)
        X = _grid(np.random.default_rng(73), 2)
        X[:, :10] = 0.0
        assert _pruned(spec) == [True, True]
        assert assert_same(spec, X) > 0

    def test_overflowing_cells_are_rescanned(self):
        spec = _spec(["x1^3*v + x2^2 - 1"], 2)
        X = np.array([[1e200, -1e200, 1e110, 0.5], [1.0, 1e160, 1.0, 0.5]])
        assert assert_same(spec, X) >= 3


# Separable trees built from hypothesis parts: c(x) and h(x) without v,
# a(v) and b(v) without x.
_XLEAF = st.one_of(
    st.fractions(min_value=-5, max_value=5, max_denominator=7).map(
        lambda q: Expr("const", value=Fraction(q))),
    st.integers(1, 3).map(lambda k: Expr("coord", index=k)))
_VLEAF = st.one_of(
    st.fractions(min_value=-5, max_value=5, max_denominator=7).map(
        lambda q: Expr("const", value=Fraction(q))),
    st.just(Expr("uvar")))
_XTREES = st.recursive(_XLEAF, _node, max_leaves=8)
_VTREES = st.recursive(_VLEAF, _node, max_leaves=6)


@st.composite
def _separable(draw):
    terms = [draw(_XTREES)]
    a = draw(_VTREES)
    for _ in range(draw(st.integers(1, 3))):
        terms.append(Expr("prod", children=(draw(_XTREES), a)))
    terms.append(draw(_VTREES))
    branch = Expr("sum", children=tuple(draw(st.permutations(terms))))
    if draw(st.booleans()):
        return branch
    return Expr("max", children=(branch, draw(_VTREES)))


_SCENARIOS = st.one_of(
    st.none(),
    st.lists(st.one_of(st.sampled_from([0.0, -1.0, 1.0, 0.5]),
                       st.floats(-3, 3, allow_subnormal=False)),
             min_size=1, max_size=6))


def _cells(seed):
    return _grid(np.random.default_rng(seed), 3, n=40)


class TestHypothesisTrees:
    @settings(max_examples=150, deadline=None)
    @given(_TREES, _SCENARIOS, st.integers(0, 2 ** 16))
    def test_any_tree(self, e, scenarios, seed):
        assert_same(_spec([e], 3, scenarios, vgrid=21), _cells(seed))

    @settings(max_examples=150, deadline=None)
    @given(_separable(), _SCENARIOS, st.integers(0, 2 ** 16))
    def test_separable_tree(self, e, scenarios, seed):
        assert_same(_spec([e], 3, scenarios, vgrid=21), _cells(seed))

    @settings(max_examples=100, deadline=None)
    @given(_separable(), st.integers(0, 2 ** 16), st.integers(0, 39))
    def test_cell_at_the_tolerance(self, e, seed, cell):
        """The tolerance is the envelope at one cell, so that cell lies
        inside the band and is decided by the rescan."""
        spec = _spec([e], 3, vgrid=21)
        X = _cells(seed)
        with np.errstate(all="ignore"):
            try:
                env = grid_oracle.envelope_grid(spec, spec.constraints[0], X)
            except ArithmeticError:
                env = np.full(X.shape[1], np.nan)
        tol = float(env[cell])
        assert_same(spec, X, tol if np.isfinite(tol) else None)
