"""Differential tests of the open mesh, the grid every raster is swept on,
against the dense (d, N) grid of the same cells, compared as int64 views so
that -0.0 and NaN count.

- ``_on_grid``, which evaluates the hull bound's x factors, gives on the
  mesh (x1[:, None], x2[None, :]), cell for cell, the bits of
  ``eval_on_grid`` on the dense columns, or raises the same exception
  class: hypothesis and ``tests/genexpr.py`` trees, axes with zero, -0.0
  and integer coordinates and values whose powers overflow.
- ``feasibility_mask`` on the mesh equals the dense mask and
  ``grid_oracle``'s: separable, non-separable and two-feature constraints,
  cells inside the rounding band of the hull bound, whole, box and
  halfspace ground sets, and integer coordinates.
- The hull bound, whose scenario side is cached per constraint, gives the
  bits of the bound that rebuilt it on every call (``grid_oracle``), on a
  cache miss and on a hit, on the mesh and on dense columns.
- ``classify_point`` gives the verdict, count, first counterexample and
  violation of the dense sweep it replaced (``grid_oracle``), for the four
  kinds on the three bundled problems of the benchmark's sweeps.
"""

from __future__ import annotations

import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import grid_oracle
from genexpr import random_supported_expr
from robustkkt import robustfeas
from robustkkt.cli import load_problem
from robustkkt.funcdsl import DomainError, _on_grid, eval_on_grid, \
    parse_expr
from robustkkt.robustfeas import UncertainConstraint, feasibility_mask
from robustkkt.setcalc import OmegaSpec
from robustkkt.verify import KINDS, classify_point
from test_grid_scan import FEATURES, NOT_SEPARABLE, OFFSETS, SEPARABLE, \
    TWO_FEATURES, _spec
from test_scalar_fn import _COORD, _TREES


def mesh_and_dense(*axes):
    """The open mesh of the axes and the dense (d, N) grid of its cells,
    in the same row-major order."""
    mesh = np.meshgrid(*axes, indexing="ij", sparse=True)
    dense = np.vstack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")])
    return mesh, dense


def bits(fn):
    try:
        with np.errstate(all="ignore"):
            return "value", np.asarray(fn(), dtype=float).ravel().view(
                np.int64).tolist()
    except (ArithmeticError, DomainError) as exc:
        return "raised", DomainError if isinstance(exc, OverflowError) \
            else type(exc)


def _axis(rng, n, scale=3.0):
    """Random axis values, with zero, -0.0, integers and one huge value."""
    x = rng.uniform(-scale, scale, n)
    x[: n // 3] = np.round(x[: n // 3])
    x[-3:] = 0.0, -0.0, 1e100
    return x


_AXIS_SIZES = st.tuples(*[st.integers(1, 7)] * 3)
_SCENARIOS = st.lists(st.one_of(_COORD, st.sampled_from([10.0, 1e100])),
                      min_size=1, max_size=5)


def on_mesh(e, mesh, v=None):
    """The hull bound's factor values on the mesh (_on_grid), expanded to
    its cells."""
    return np.broadcast_to(_on_grid(e, mesh, v),
                           np.broadcast_shapes(*map(np.shape, mesh)))


class TestEvaluation:
    @settings(max_examples=250, deadline=None)
    @given(_TREES, _SCENARIOS, _AXIS_SIZES, st.integers(0, 2 ** 16))
    def test_hypothesis_trees(self, e, scenarios, sizes, seed):
        rng = np.random.default_rng(seed)
        mesh, dense = mesh_and_dense(*[_axis(rng, n + 3) for n in sizes])
        v = scenarios[0] if e.has_v else None
        got = bits(lambda: on_mesh(e, mesh, v))
        assert got == bits(lambda: eval_on_grid(e, dense, v)), str(e)

    def test_factor_shape(self):
        # a factor keeps the shape of the coordinates it reads
        mesh, dense = mesh_and_dense(np.arange(3.0), np.arange(4.0))
        for text, shape in (("x1", (3, 1)), ("x2", (1, 4)),
                            ("x1*x2", (3, 4)), ("2", ()), ("sqrt(-1)", ())):
            e = parse_expr(text, 2)
            assert np.shape(_on_grid(e, mesh)) == shape
            assert eval_on_grid(e, dense).shape == (12,)

    def test_genexpr_trees(self):
        rng = np.random.default_rng(83)
        for trial in range(80):
            e = random_supported_expr(rng, 2)
            mesh, dense = mesh_and_dense(_axis(rng, 9), _axis(rng, 6))
            assert bits(lambda: on_mesh(e, mesh)) == \
                bits(lambda: eval_on_grid(e, dense)), str(e)

    def test_zero_divisors_and_overflow(self):
        mesh, dense = mesh_and_dense(np.array([0.0, -0.0, 2.0, 1e200]),
                                     np.array([-1.0, 0.0, 3.0]))
        for text in ("1/x1 + x2", "1/(x1*x2)", "sqrt(x2) - x1^5",
                     "x1^3*x2^2", "max(1/x2, x1^4)", "abs(x1)/x2 - 1"):
            e = parse_expr(text, 2)
            got = bits(lambda: on_mesh(e, mesh))
            assert got == bits(lambda: eval_on_grid(e, dense)), text
            assert got[0] == "value"


def assert_same_mask(spec, x1, x2, tol=None):
    """The mesh mask, the dense mask and grid_oracle's mask agree; returns
    the mask."""
    if tol is not None:
        spec = replace(spec, feas_tol=tol)
    mesh, dense = mesh_and_dense(x1, x2)
    with np.errstate(all="ignore"):
        got = feasibility_mask(spec, mesh)
        want = grid_oracle.feasibility_mask(spec, dense)
        assert feasibility_mask(spec, dense).tolist() == want.tolist()
    assert got.shape == (len(x1), len(x2))
    assert got.ravel().tolist() == want.tolist(), \
        [str(c.expr) for c in spec.constraints]
    return got


OMEGAS = {"whole": OmegaSpec.whole(2),
          "box": OmegaSpec.box([-1.5, -2.0], [1.0, 1.5]),
          "halfspaces": OmegaSpec.halfspaces([[1.0, 1.0], [-1.0, 2.0]],
                                             [1.0, 2.5])}


class TestFeasibilityMask:
    def _cases(self, rng, templates, n):
        for _ in range(n):
            e = random_supported_expr(rng, 2)
            yield parse_expr(str(rng.choice(templates)).format(
                e=f"({e})", a=rng.choice(FEATURES), b=rng.choice(OFFSETS)), 2)

    @pytest.mark.parametrize("omega", sorted(OMEGAS))
    def test_generated_constraints(self, omega):
        rng = np.random.default_rng(89)
        exprs = list(self._cases(rng, SEPARABLE + NOT_SEPARABLE
                                 + TWO_FEATURES, 24))
        for k in range(0, 24, 2):
            spec = replace(_spec(exprs[k:k + 2], 2), omega=OMEGAS[omega])
            x1 = np.round(rng.uniform(-2, 2, 13), int(rng.integers(0, 3)))
            assert_same_mask(spec, x1, rng.uniform(-2, 2, 11))

    @pytest.mark.parametrize("omega", sorted(OMEGAS))
    def test_ground_sets(self, omega):
        x1, x2 = np.linspace(-3, 3, 25), np.linspace(-3, 3, 19)
        spec = replace(_spec(["x1 + v*x2 - 10"], 2), omega=OMEGAS[omega])
        got = assert_same_mask(spec, x1, x2)
        inside = [[OMEGAS[omega].contains([a, b]) for b in x2] for a in x1]
        assert got.tolist() == inside

    @pytest.mark.parametrize("name", ["example_2_2", "example_3_2",
                                      "example_3_2_printedg2",
                                      "example_3_5"])
    def test_bundled(self, name):
        assert_same_mask(load_problem(name), np.linspace(-5, 3, 61),
                         np.linspace(-5, 5, 47))

    def test_cells_at_the_tolerance(self, spec22):
        # a tolerance equal to the full scan F at a cell where the hull
        # bound P exceeds it puts that cell inside the band
        x1, x2 = np.linspace(-5, 3, 41), np.linspace(-5, 5, 41)
        _, dense = mesh_and_dense(x1, x2)
        checked = 0
        for con in spec22.constraints:
            one = replace(spec22, constraints=(con,))
            F = grid_oracle.envelope_grid(one, con, dense)
            P, _, _ = robustfeas._hull_bound(one, con, dense)
            for t in np.flatnonzero(P > F)[:2]:
                assert_same_mask(one, x1, x2, tol=float(F[t]))
                checked += 1
        assert checked > 0

    def test_integer_coordinates_are_read_as_floats(self):
        # in int64, x1^5 at x1 = +-7000 wraps around to the other sign
        spec = _spec(["x1^5 + v*x2 - 1"], 2)
        x1, x2 = np.array([-7000, 0, 7000]), np.array([-1, 0, 1])
        mesh, dense = mesh_and_dense(x1, x2)
        assert dense.dtype == np.int64
        got = assert_same_mask(spec, x1, x2)
        assert feasibility_mask(spec, dense).tolist() == got.ravel().tolist()
        assert got.tolist() == [[True] * 3] * 2 + [[False] * 3]

    def test_rescan_gathers_dense_cells_in_row_major_order(self,
                                                           monkeypatch):
        # a non-separable constraint is rescanned at every feasible cell,
        # here all of them, on dense (2, k) coordinates
        spec = _spec(["abs(x1 + v*x2) - 1"], 2)
        seen = []
        scan = robustfeas.envelope_grid

        def recording(spec, con, X):
            seen.append(np.array(X))
            return scan(spec, con, X)

        monkeypatch.setattr(robustfeas, "envelope_grid", recording)
        x1, x2 = np.linspace(-1, 1, 5), np.linspace(-2, 2, 3)
        assert_same_mask(spec, x1, x2)
        assert seen[0].tolist() == mesh_and_dense(x1, x2)[1].tolist()


def _constraints():
    for name in ("example_2_2", "example_3_2", "example_3_2_printedg2",
                 "example_3_5"):
        spec = load_problem(name)
        for con in spec.constraints:
            yield spec, con
    rng = np.random.default_rng(97)
    for template in SEPARABLE * 4:
        spec = _spec([template.format(
            e=f"({random_supported_expr(rng, 2)})", a=rng.choice(FEATURES),
            b=rng.choice(OFFSETS))], 2)
        yield spec, spec.constraints[0]
    spec = _spec(["x1/v + x2 - sqrt(v)"], 2, scenarios=[-1.0, 0.0, 0.5, 2.0])
    yield spec, spec.constraints[0]
    # terms of several x and v factors, whose caps multiply in term order
    spec = _spec(["3*x1*x2*(v + 2)*(v + 4) + x2*(v + 2)*(v + 4)/7 - v^2"], 2,
                 vgrid=51)
    yield spec, spec.constraints[0]


class TestScenarioSideCache:
    def test_cached_side_is_bit_equal_to_a_rebuilt_one(self):
        mesh, dense = mesh_and_dense(np.linspace(-5, 3, 31),
                                     np.linspace(-5, 5, 23))
        checked = 0
        for spec, con in _constraints():
            with np.errstate(all="ignore"):
                want = grid_oracle.hull_bound(spec, con, dense)
                if want is None:
                    continue
                robustfeas._scenario_sides.cache_clear()
                # a miss, then two hits; the band at every cell, read at
                # once and gathered cell by cell
                for X, cells in ((dense, (713,)), (mesh, (31, 23)),
                                 (dense, (713,))):
                    P, widest, band = robustfeas._hull_bound(spec, con, X)
                    every = np.unravel_index(np.arange(713), cells)
                    for got, ref in ((P, want[0]), (band(), want[1])):
                        assert bits(lambda: np.broadcast_to(got, cells)) == \
                            bits(lambda: np.broadcast_to(ref, (713,))), \
                            str(con.expr)
                    assert bits(lambda: band(every)) == bits(
                        lambda: np.broadcast_to(want[1], (713,)))
                    # wider only where a factor is NaN, and so is P
                    wider = band(every) > widest
                    assert np.isnan(np.broadcast_to(P, cells)[every][
                        wider]).all(), str(con.expr)
                info = robustfeas._scenario_sides.cache_info()
                assert (info.misses, info.hits) == (1, 2)
            checked += 1
        assert checked >= 20

    def test_key_ignores_spans(self):
        # the same constraint written with other spacing is a hit
        robustfeas._scenario_sides.cache_clear()
        X = mesh_and_dense(np.linspace(-1, 1, 4), np.linspace(-1, 1, 3))[0]
        for text in ("x1 + v*x2 - 1", "x1 +  v * x2 - 1"):
            robustfeas._hull_bound(_spec([text], 2), UncertainConstraint(
                "g1", parse_expr(text, 2), -1.0, 1.0), X)
        info = robustfeas._scenario_sides.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_scenarios_given_as_a_list(self):
        # a list of scenarios is kept as a tuple, so the constraint is a key
        con = UncertainConstraint("g1", parse_expr("x1 + v*x2 - 1", 2),
                                  scenarios=[-1.0, 0.5, 2.0])
        assert con.scenarios == (-1.0, 0.5, 2.0)
        spec = replace(_spec(["x1"], 2), constraints=(con,))
        assert_same_mask(spec, np.linspace(-2, 2, 9), np.linspace(-2, 2, 7))

    def test_scenario_count_is_part_of_the_key(self):
        robustfeas._scenario_sides.cache_clear()
        con = UncertainConstraint("g1", parse_expr("x1 + v*x2", 2), -1.0,
                                  1.0)
        for vgrid in (41, 42, 41):
            robustfeas._hull_bound(_spec(["x1"], 2, vgrid=vgrid), con,
                                   np.zeros((2, 1)))
        info = robustfeas._scenario_sides.cache_info()
        assert (info.misses, info.hits) == (2, 1)


# The benchmark's sweep problems, the README regions of their rasters, and
# the origin and a feasible point that is not efficient, whose first
# counterexample depends on the order of the feasible cells.
SWEEPS = {"example_3_2": ((-5, 1, -5, 5), [(0.0, 0.0), (-1.0, 3.0)]),
          "example_3_5": ((-3, 3, -4, 1), [(0.0, 0.0), (-0.5, -1.0)]),
          "example_2_3": ((-3, 3, -4, 1), [(0.0, 0.0), (2.0, -3.0)])}


def assert_same_verdict(spec, xbar, kind, region, resolution):
    """classify_point gives grid_oracle's verdict, count, first
    counterexample and violation, the last two compared as int64 views."""
    got = classify_point(spec, xbar, kind, region, resolution)
    want = grid_oracle.classify_point(spec, xbar, kind, region, resolution)
    assert (got.no_counterexample, got.feasible_checked) == \
        (want.no_counterexample, want.feasible_checked)
    for a, b in ((got.counterexample, want.counterexample),
                 (got.violation, want.violation)):
        assert (a is None) == (b is None)
        if a is not None:
            assert bits(lambda: a) == bits(lambda: b)
    return got


class TestClassifyPoint:
    @pytest.mark.parametrize("name,kind",
                             list(itertools.product(SWEEPS, KINDS)))
    def test_same_verdict_as_the_dense_sweep(self, name, kind):
        # resolution 37 puts x1 = 0 on a grid line of each region; the
        # README's 401 and an even 40 are test_mesh_verdicts' sweeps
        spec, (region, points) = load_problem(name), SWEEPS[name]
        for xbar in points:
            assert_same_verdict(spec, np.array(xbar), kind, region, 37)
