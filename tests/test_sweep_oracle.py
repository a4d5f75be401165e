"""Differential tests of the sweep's planar geometry and its scalarized
weights against the code they replaced, kept in sweep_oracle.py.

``certify._SweepGeometry`` merges each row's exact directions into the base
polygon at their places only, takes the edges into and out of each, and
folds its short axes in loops; its margins must be bit-equal to
``sweep_oracle.SweepGeometry``, which sorts all of each row's vertices and
reduces with numpy, on every wall set the sweeps meet, with the exact
directions on and off, and the merged polygons must have the same edges.
Both score the same rays: with the exact directions, a row outside the
hull fallback scores its exact directions, tie rays and wall rays, and no
base-polygon vertex.  Component slots come from hypothesis with 1-4
vertices, among them directions exactly on base angles, on either side of
+-pi, several in one gap, and coincident or zero vertices, which take the
hull fallback.

The rule change that dropped the base vertices is checked three ways:
against the oracle with ``full=True`` (every base vertex a candidate of
every row), the same finite, -inf and NaN entries and each margin within
4 ulps of max(1, |old|), for a base vertex wins only by its excess over
the unit circle and BLAS rounds the batched 2-term products by the batch's
width (bit for bit without the exact directions); against the HiGHS LP
``sweep_oracle._lp_witness_margin`` over the ball with the exact
directions, within 1e-9; and by the per-sample verdicts of every bundled
problem's type I and II sweep over the README region at y-res 6, 12, 24
and 48, which the full rule gives alike.

``Scalarization`` folds the weights of a whole y* grid at once and runs a
structure key's refusals once; per row it must agree with
``sweep_oracle.weights``, the fold and refusals of one y* as one call ran
them: the same key and constants, or the same exception.
"""

from __future__ import annotations

import contextlib
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sweep_oracle
from robustkkt import certify
from robustkkt.certify import ystar_grid
from robustkkt.cli import load_problem, run_command
from robustkkt.funcdsl import parse_expr
from robustkkt.setcalc import DUAL_NORM, dual_ball
from robustkkt.subdiff import Scalarization
from test_sweep import VARIANTS, _variant

BALLS = [("l2", 64, True), ("l2", 64, False), ("l2", 8, True),
         ("l1", 64, False), ("linf", 64, True)]


def _bits(a):
    """a's floats as int64, so that -0.0 counts; every NaN as one NaN (a
    zero tie ray of coincident vertices has gauge 0/0, and the NaN's sign
    follows the order numpy reduces in; no sweep's sets have them)."""
    a = np.asarray(a, dtype=float)
    return np.where(np.isnan(a), np.nan, a).view(np.int64)


def _polygon_edges(geometry, hit, new):
    """A merged polygon's edges (normal, height) as a set, bit for bit: the
    base edges its directions do not split, and the new ones."""
    kept = np.delete(geometry.G[:, 2:], hit, axis=0)
    return set(map(tuple, _bits(np.vstack([kept, new])).tolist()))


def _sweep_walls(spec, region, **kw):
    """The wall sets of the geometry a sweep builds (its masks' cuts)."""
    built = []
    init = certify._SweepGeometry.__init__

    def spy(self, pball, l2_dirs, walls):
        built.append(walls)
        init(self, pball, l2_dirs, walls)

    certify._SweepGeometry.__init__ = spy
    try:
        for ptype in ("I", "II"):
            certify.pseudoconvex_test(spec, np.zeros(2), ptype, region, **kw)
    finally:
        certify._SweepGeometry.__init__ = init
    return built[0]


@pytest.fixture(scope="module")
def wall_sets(tmp_path_factory):
    """No walls, the bundled type I sweep's, and each VARIANTS sweep's."""
    sets = {"none": [np.zeros((0, 2))],
            "example_2_2": _sweep_walls(load_problem("example_2_2"),
                                        [-2, 2, -2, 2], grid=9,
                                        y_resolution=6)}
    for variant in VARIANTS:
        spec, region = _variant(tmp_path_factory.mktemp(variant), variant)
        sets[variant] = _sweep_walls(spec, region, grid=9, y_resolution=6)
    return sets


def assert_same_margins(ball, walls, comps, ytheta):
    norm, facets, l2_dirs = ball
    pball = dual_ball(DUAL_NORM[norm], 2, facets)
    new = certify._SweepGeometry(pball, l2_dirs, walls)
    old = sweep_oracle.SweepGeometry(pball, l2_dirs, walls)
    with np.errstate(all="ignore"):
        got, want = new.margins(comps, ytheta), old.margins(comps, ytheta)
        if l2_dirs:  # the merged polygons themselves
            for U in comps:
                nu = np.linalg.norm(U, axis=2, keepdims=True)
                E = -U / np.where(nu > 1e-15, nu, 1.0)
                (c1, h1, n1), (c2, h2, n2) = new._insert(E), old._insert(E)
                assert np.array_equal(c1, c2)
                assert np.array_equal(np.sort(h1[c1]), np.sort(h2[c2]))
                for r in np.flatnonzero(c1).tolist():
                    assert _polygon_edges(new, h1[r], n1[r]) == \
                        _polygon_edges(old, h2[r], n2[r])
    assert got.shape == want.shape
    assert np.array_equal(_bits(got), _bits(want)), (got, want)


_COORD = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.0]),
                   st.floats(-3, 3, allow_subnormal=False))


def _vertex(ball):
    """A vertex u: generic; -2^e times a base vertex, so that -u/|u| lies
    exactly on a base angle; near the negative x axis, so that -u/|u| lies
    on either side of +-pi; or a base vertex turned by a small angle, so
    that several land in one gap."""
    norm, facets, _ = ball
    V = dual_ball(DUAL_NORM[norm], 2, facets).vertices
    on_base = st.tuples(st.integers(0, len(V) - 1), st.integers(-2, 2)).map(
        lambda t: -V[t[0]] * 2.0 ** t[1])
    near_pi = st.tuples(st.sampled_from([1e-300, 1e-12, 1e-3, 0.0, -0.0]),
                        st.sampled_from([1.0, -1.0])).map(
        lambda t: np.array([1.0, t[0] * t[1]]))
    in_gap = st.tuples(st.integers(0, len(V) - 1),
                       st.floats(1e-6, np.pi / len(V))).map(
        lambda t: -np.array([[np.cos(t[1]), -np.sin(t[1])],
                             [np.sin(t[1]), np.cos(t[1])]]) @ V[t[0]])
    generic = st.tuples(_COORD, _COORD).map(np.array)
    return st.one_of(generic, on_base, near_pi, in_gap)


@st.composite
def _slots(draw, ball):
    """Component slots (rows, k, 2) of one batch, with coincident and zero
    vertices among them, and their ytheta."""
    rows = draw(st.integers(1, 5))
    comps = []
    for k in draw(st.lists(st.integers(1, 4), min_size=1, max_size=2)):
        U = np.array([[draw(_vertex(ball)) for _ in range(k)]
                      for _ in range(rows)], dtype=float)
        if k > 1 and draw(st.booleans()):
            U[0, 1] = U[0, 0]  # coincident
        if draw(st.booleans()):
            U[-1, 0] = 0.0  # a zero vertex
        comps.append(U)
    ytheta = np.array(draw(st.lists(
        st.one_of(st.sampled_from([0.0, -0.0, 0.25]),
                  st.floats(-2, 2, allow_subnormal=False)),
        min_size=rows, max_size=rows)))
    return comps, ytheta


@settings(max_examples=400, deadline=None)
@given(st.data(), st.sampled_from(BALLS),
       st.sampled_from(["none", "example_2_2", *VARIANTS]))
def test_margins_bit_equal(wall_sets, data, ball, walls):
    comps, ytheta = data.draw(_slots(ball))
    assert_same_margins(ball, wall_sets[walls], comps, ytheta)


README_SWEEPS = [
    ["pseudoconvex", "--problem", "example_2_2", "--at", "0,0",
     "--type", "I", "--region", "-2,2,-2,2"],
    ["pseudoconvex", "--problem", "example_2_3", "--at", "0,0",
     "--type", "II", "--region", "-2,2,-2,2"],
    # segments (two exact directions per set), and INCONCLUSIVE samples
    ["pseudoconvex", "--problem", "example_3_2", "--at", "0,0",
     "--type", "I", "--region", "-2,2,-2,2", "--y-res", "12"],
]


@pytest.mark.parametrize("argv", README_SWEEPS,
                         ids=["2.2-I", "2.3-II", "3.2-I"])
def test_margins_bit_equal_on_sweeps(monkeypatch, argv):
    """Every batch a sweep stacks, against the oracle built alike."""
    seen = []
    margins = certify._SweepGeometry.margins

    def spy(self, comps, ytheta):
        got = margins(self, comps, ytheta)
        old = sweep_oracle.SweepGeometry(self.pball, self.l2_dirs,
                                         _walls(self))
        assert np.array_equal(_bits(got), _bits(old.margins(comps, ytheta)))
        seen.append(got.size)
        return got

    monkeypatch.setattr(certify._SweepGeometry, "margins", spy)
    with contextlib.redirect_stdout(io.StringIO()):
        assert run_command(argv) in (0, 2)
    assert sum(seen) >= 500


def _walls(geometry):
    """The wall sets a geometry was built from, mask by mask."""
    return [geometry.walls[own] for own in geometry.wall_owner]


# objectives: plain, a product with a constant, a lone sum with a constant
# (unit weights add it up), a constant, and a product refused at the
# origin (each refusal names its weight)
OBJECTIVES = {
    "plain": ["abs(x1) + x2", "max(x1, x2)", "abs(x2) - x1"],
    "unit": ["abs(x1) + x2 + 1", "x1 + 10^308", "x2 + 10^308"],
    "mixed": ["(1/2)*abs(x2)", "abs(x1) + x2 + 1", "7/3"],
    "rough": ["abs(x1)*abs(x2)", "x1", "2*abs(x1)*abs(x2)"],
    "large": ["(10^300)*x1", "x2", "10^300"],
    "faults": ["sqrt(x1)", "abs(x1)", "abs(sqrt(x1))"],
}
VALUES = [0.0, -0.0, 1.0, -1.0, 0.3, 1e10, np.nan, np.inf, -np.inf]


def _rows_with_values(p):
    """Every pattern of VALUES in the first two weights, the third 0.5
    or 1, and a y* grid."""
    grid = [[a, b, c] for a in VALUES for b in VALUES for c in (0.5, 1.0)]
    return np.vstack([np.array(grid)[:, :p], ystar_grid(
        load_problem("example_2_2"), 6)[:, :p]])


def _outcome(fn):
    try:
        return ("value", *fn())
    except Exception as exc:  # the class and message are what must match
        return ("raised", type(exc), str(exc))


@pytest.mark.parametrize("mode", ["limiting", "bogus"])
@pytest.mark.parametrize("case", OBJECTIVES)
def test_groups_match_weights(case, mode):
    fs = [parse_expr(t, 2) for t in OBJECTIVES[case]]
    scal = Scalarization(fs, np.zeros(2), mode)
    Y = _rows_with_values(len(fs))
    want = [_outcome(lambda: sweep_oracle.weights(scal, y))
            for y in Y.tolist()]
    refused, keys = scal._keys(Y)
    got = {}
    for key, (rows, C) in keys.items():
        assert C.shape == (rows.size, sum(s == 2 for s in key[0]))
        for r, cps in zip(rows.tolist(), C):
            got[r] = ("value", key, cps)
    for rows, exc in refused:
        for r in rows.tolist():
            assert r not in got
            got[r] = ("raised", type(exc), str(exc))
    assert sorted(got) == list(range(len(Y)))
    with np.errstate(all="ignore"):
        groups = scal.groups(Y)
    grouped = {}
    for rows, comps in groups:
        for r in rows.tolist():
            assert r not in grouped
            grouped[r] = (("raised", type(comps), str(comps))
                          if isinstance(comps, Exception) else "value")
    for r, w in enumerate(want):
        if w[0] == "raised":
            assert got[r] == grouped[r] == w, (r, Y[r])
            continue
        # the same key and constants, bit for bit
        assert got[r][:2] == w[:2], r
        assert np.array_equal(_bits(got[r][2]), _bits(w[2])), r
        # and what a call gives: its set, or an atom's fault
        with np.errstate(all="ignore"):
            call = _outcome(lambda: (scal(Y[r]),))
        assert grouped[r] == (call if call[0] == "raised" else "value"), r
    # every row of the rough case names its constant when refused
    assert ("value" in {w[0] for w in want}) == (
        mode == "limiting" and case != "rough")


def test_groups_refuse_once_per_key(monkeypatch):
    """The bundled y* grid is one key: _weights folds its first row and
    refuses it, once each, for all 576 rows."""
    spec = load_problem("example_2_2")
    scal = Scalarization(spec.objectives, np.zeros(2))
    calls = []
    weights = Scalarization._weights
    monkeypatch.setattr(Scalarization, "_weights", lambda self, ys, **kw: (
        calls.append(kw.get("refuse", True)) or weights(self, ys, **kw)))
    groups = scal.groups(ystar_grid(spec, 24))
    assert sum(rows.size for rows, _ in groups) == 576
    assert calls == [False, True]


@pytest.mark.parametrize("ball", BALLS)
def test_known_rays(wall_sets, ball):
    """The rays every row outside the hull fallback scores: each mask's
    wall rays, after the base polygon's vertices unless the ball holds
    the exact directions."""
    norm, facets, l2_dirs = ball
    pball = dual_ball(DUAL_NORM[norm], 2, facets)
    for walls in wall_sets.values():
        geometry = certify._SweepGeometry(pball, l2_dirs, walls)
        live = np.vstack(walls)
        live = live[np.any(live != 0.0, axis=1)]
        perp = np.column_stack([-live[:, 1], live[:, 0]])
        want = np.vstack([perp, -perp])
        if not l2_dirs:
            want = np.vstack([geometry.G[:, :2], want])
        assert np.array_equal(_bits(geometry.known[0]), _bits(want))


@settings(max_examples=400, deadline=None)
@given(st.data(), st.sampled_from(BALLS),
       st.sampled_from(["none", "example_2_2", *VARIANTS]))
def test_margins_near_the_full_rule(wall_sets, data, ball, walls):
    comps, ytheta = data.draw(_slots(ball))
    norm, facets, l2_dirs = ball
    pball = dual_ball(DUAL_NORM[norm], 2, facets)
    with np.errstate(all="ignore"):
        got = certify._SweepGeometry(pball, l2_dirs, wall_sets[walls]).margins(
            comps, ytheta)
        old = sweep_oracle.SweepGeometry(pball, l2_dirs, wall_sets[walls],
                                         full=True).margins(comps, ytheta)
    if not l2_dirs:
        assert np.array_equal(_bits(got), _bits(old))
        return
    fin = np.isfinite(old)
    assert np.array_equal(np.where(fin, 0.0, got), np.where(fin, 0.0, old),
                          equal_nan=True), (got, old)
    assert np.all(np.abs(got[fin] - old[fin]) <= 4 * np.spacing(1.0)
                  * np.maximum(1.0, np.abs(old[fin]))), (got, old)


def _highs(U, ytheta, pball, cuts):
    """The margin of one component as the HiGHS LP over the l2 ball with
    its exact directions; -inf where no w has a nonnegative margin."""
    found = sweep_oracle._lp_witness_margin(
        U, ytheta, sweep_oracle._witness_ball(U, pball, True), cuts)
    return -np.inf if found is None else found[0]


@settings(max_examples=60, deadline=None)
@given(st.data(), st.sampled_from(["none", "example_2_2", *VARIANTS]))
def test_margins_match_highs(wall_sets, data, walls):
    ball = ("l2", 64, True)
    comps, ytheta = data.draw(_slots(ball))
    pball = dual_ball("l2", 2, 64)
    walls = wall_sets[walls]
    with np.errstate(all="ignore"):
        got = certify._SweepGeometry(pball, True, walls).margins(comps,
                                                                 ytheta)
    for r, row in enumerate(got.tolist()):
        if np.isnan(row).any():
            assert any(len({tuple(u) for u in U[r].tolist()}) < len(U[r])
                       for U in comps)
            continue
        for cuts, margin in zip(walls, row):
            want = min(_highs(U[r], ytheta[r], pball, cuts) for U in comps)
            if min(margin, want) < 1e-9:
                assert max(margin, want) < 1e-9, (margin, want)
            else:
                assert margin == pytest.approx(want, abs=1e-9)


BUNDLED = ["example_2_2", "example_2_3", "example_3_2",
           "example_3_2_printedg2", "example_3_5"]


def _verdicts(spec, ptype, y_resolution):
    try:
        return certify.pseudoconvex_test(
            spec, np.zeros(2), ptype, [-2, 2, -2, 2],
            y_resolution=y_resolution).verdicts.tolist()
    except Exception as exc:  # the class and message are what must match
        return type(exc), str(exc)


@pytest.mark.parametrize("name", BUNDLED)
def test_verdicts_of_the_full_rule(monkeypatch, name):
    spec = load_problem(name)
    cases = [(ptype, y) for ptype in ("I", "II") for y in (6, 12, 24, 48)]
    got = [_verdicts(spec, *case) for case in cases]
    built = []

    def full(pball, l2_dirs, walls):
        built.append(l2_dirs)
        return sweep_oracle.SweepGeometry(pball, l2_dirs, walls, full=True)

    monkeypatch.setattr(certify, "_SweepGeometry", full)
    assert [_verdicts(spec, *case) for case in cases] == got
    assert built and all(built)
