"""Regression tests of the two-stage band of the hull bound.

``feasibility_mask`` decides a cell by P where |P - tol| exceeds the band
at its widest over the grid, delta_max; then, at the cells still open, by
the per-cell band delta(x); and rescans only the cells inside that band.
The per-cell band is bit-equal to ``grid_oracle.hull_bound``'s, so the
cells handed to ``envelope_grid`` must be exactly those that the one-stage
mask rescanned: the cells inside the oracle's per-cell band that are still
feasible, constraint by constraint (``open_cells`` below).

- Two constraints whose x factor spans many orders of magnitude over the
  grid, so that delta_max alone would open thousands of cells.
- A one-vertex hull (``v - 2``), whose tangent query has no slope to read.
- An empty grid, whose widest band is read from no cell.
- An x factor that is NaN on part of the grid (``sqrt(x1)*v + 5`` over
  x1 < 0, the D3b file of ROADMAP.md): the per-cell band is infinite there
  while delta_max ignores NaN, and P is NaN there, so no cell is decided
  by delta_max that the per-cell band would not decide.  The mask keeps
  the full scan's D3b answer, which is left for direction 1.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

import grid_oracle
from robustkkt import robustfeas
from robustkkt.robustfeas import _tangent, feasibility_mask, raster
from test_grid_scan import _spec
from test_open_mesh import mesh_and_dense


def open_cells(spec, dense):
    """The dense columns that the one-stage mask rescanned: feasible so
    far and inside grid_oracle.hull_bound's per-cell band, with the full
    scan deciding them."""
    tol, ok = spec.feas_tol, spec.omega.contains_grid(dense)
    opened = []
    with np.errstate(all="ignore"):
        for con in spec.constraints:
            P, delta = grid_oracle.hull_bound(spec, con, dense) or (np.nan,
                                                                    np.inf)
            decided = np.abs(P - tol) > delta
            ok &= ~(decided & (P > tol))
            cells = np.flatnonzero(ok & ~decided)
            opened.append(dense[:, cells])
            env = grid_oracle.envelope_grid(spec, con, dense[:, cells])
            ok[cells] = ~np.isnan(env) & (env <= tol)
    return opened, ok


def assert_same_rescan(spec, x1, x2):
    """The mask on the open mesh rescans the one-stage mask's cells and
    equals its mask; the number of rescanned cells."""
    mesh, dense = mesh_and_dense(x1, x2)
    want, mask = open_cells(spec, dense)
    seen = []
    scan = robustfeas.envelope_grid

    def recording(spec, con, X):
        seen.append(np.array(X))
        return scan(spec, con, X)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(robustfeas, "envelope_grid", recording)
        got = feasibility_mask(spec, mesh)
    assert got.ravel().tolist() == mask.tolist()
    assert [s.tolist() for s in seen] == [w.tolist() for w in want if
                                          w.shape[1]]
    return sum(w.shape[1] for w in want)


# The widest band of x1^8*v over [-100, 100] is 1e16 times its band near
# x1 = 0; a band of delta_max alone rescanned 2,807 and 10 of these cells.
WIDE = (np.linspace(-100, 100, 401), np.linspace(-100, 100, 401))


class TestWideFactors:
    @pytest.mark.parametrize("text", ["x1^8*v - 1",
                                      "(1/1000)*x1^6*v + x2*v - 1"])
    def test_no_cell_rescanned(self, text):
        spec = _spec([text], 2, vgrid=1001)
        assert assert_same_rescan(spec, *WIDE) == 0
        P, widest, band = robustfeas._hull_bound(
            spec, spec.constraints[0], np.meshgrid(*WIDE, sparse=True,
                                                   indexing="ij"))
        assert (band() < widest / 1e6).any()

    def test_cells_at_the_tolerance(self, spec22):
        # a tolerance at a cell where P exceeds the full scan opens it,
        # in the per-cell band as in the widest
        x1, x2 = np.linspace(-5, 3, 41), np.linspace(-5, 5, 41)
        _, dense = mesh_and_dense(x1, x2)
        rescanned = 0
        for con in spec22.constraints:
            one = replace(spec22, constraints=(con,))
            F = grid_oracle.envelope_grid(one, con, dense)
            P = robustfeas._hull_bound(one, con, dense)[0]
            for t in np.flatnonzero(P > F)[:2]:
                rescanned += assert_same_rescan(replace(
                    one, feas_tol=float(F[t])), x1, x2)
        assert rescanned > 0


class TestTangent:
    def test_one_vertex_hull(self, spec32):
        # ex 3.2's g2 = max(-3*abs(x1) + v*x2 - 2, v - 2): the second
        # branch's hull is the one scenario point v = 1
        hulls = [side[2] for side in robustfeas._scenario_sides(
            spec32.constraints[1], spec32.vgrid)]
        assert [h[2].size for h in hulls] == [1, 0]
        h = np.linspace(-3, 3, 13)[:, None]
        ak, bk, steps, _ = hulls[1]
        assert _tangent(ak, bk, steps, h).tolist() == \
            (ak[0] * h + bk[0]).tolist()
        assert_same_rescan(spec32, np.linspace(-5, 1, 61),
                           np.linspace(-5, 5, 47))

    @pytest.mark.parametrize("feature", ["v", "v^2", "v^3 - v", "abs(v)"])
    def test_clipped_query_is_searchsorted(self, feature):
        # cells between the first and the last step among few or many
        # outside them, with every step, NaN and infinities
        spec = _spec([f"({feature})*(x1 - x2) - ({feature})^2"], 2,
                     vgrid=101)
        [(_, _, (ak, bk, steps, _))] = robustfeas._scenario_sides(
            spec.constraints[0], spec.vgrid)
        assert steps.size > 1
        rng = np.random.default_rng(7)
        between = rng.uniform(steps[0], steps[-1], 300)
        ends = np.concatenate([steps, [np.nan, np.inf, -np.inf]])
        for outside in (0, 2000):
            h = np.concatenate([between, ends, steps[0] - rng.exponential(
                size=outside // 2), steps[-1] + rng.exponential(
                size=outside // 2)])
            j = np.searchsorted(steps, h)
            with np.errstate(invalid="ignore"):
                want = ak[j] * h + bk[j]
                got = _tangent(ak, bk, steps, h.reshape(-1, 1))
            assert got.ravel().view(np.int64).tolist() == \
                want.view(np.int64).tolist()


class TestEdges:
    def test_empty_grid(self, spec35):
        for n1, n2 in ((0, 0), (0, 5), (5, 0)):
            r = raster(spec35, (-3, 3, -4, 1), (n1, n2))
            assert r.feasible.shape == (n1, n2)
        assert feasibility_mask(spec35, np.zeros((2, 0))).shape == (0,)
        for con in spec35.constraints:
            P, widest, band = robustfeas._hull_bound(spec35, con,
                                                     np.zeros((2, 0)))
            assert np.isfinite(widest) and np.shape(band()) == (0,)

    def test_nan_factor(self):
        # sqrt(x1) is NaN at x1 < 0: the full scan's envelope there is
        # -inf, and those cells read feasible (D3b)
        spec = _spec(["sqrt(x1)*v + 5"], 2)
        x1, x2 = np.linspace(-1, 1, 9), np.linspace(-1, 1, 5)
        mesh, dense = mesh_and_dense(x1, x2)
        P, widest, band = robustfeas._hull_bound(spec, spec.constraints[0],
                                                 mesh)
        assert np.isfinite(widest)
        negative = np.broadcast_to(x1[:, None] < 0, (9, 5))
        assert np.isinf(np.broadcast_to(band(), (9, 5))[negative]).all()
        assert np.isnan(np.broadcast_to(P, (9, 5))[negative]).all()
        assert_same_rescan(spec, x1, x2)
        with np.errstate(all="ignore"):
            want = grid_oracle.feasibility_mask(spec, dense)
        got = feasibility_mask(spec, mesh)
        assert got.ravel().tolist() == want.tolist()
        assert got[negative].all() and not got[~negative].any()
