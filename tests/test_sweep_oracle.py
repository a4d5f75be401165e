"""Differential tests of the sweep's planar geometry and its scalarized
weights against the code they replaced, kept in sweep_oracle.py.

``certify._SweepGeometry`` scores each candidate ray r at r/||r||, the
boundary point of the unit ball of the problem's norm.  In the l1 and linf
norms its margins must be bit-equal to ``sweep_oracle.SweepGeometry``, the
polygon rule it replaced, whose gauges on those balls' edges are the same
numbers.  In the l2 norm they must lie within 1e-12 of the exact-disk
oracle's bracket ``sweep_oracle.disk_margins`` (the disk over the walls'
wedge and over the wedge the cut test admits), and against the polygon
rule (the ``ball_facets``-gon with each component's exact directions) they
are never lower by more than 4 ulps of max(1, |old|) and never higher than
the 64-gon's inradius gap allows (``assert_near_the_polygon``).
Component slots come from hypothesis with 1-4 vertices, among them
directions exactly on the 64-gon's angles, on either side of +-pi, several
in one gap of it, and coincident or zero vertices.  A zero ray scores the
origin, so a row with coincident vertices (a zero tie ray) has the margins
of the same row with the duplicates taken out, within 4 ulps; the polygon
rule scored that ray 0/0, so it is compared on the row without them.  The per-sample
verdicts of every bundled problem and its l1 and linf copies, for type I
and II sweeps over the README region at y-res 6, 12, 24 and 48, at the
origin and at (0.3, -1.2), are those of the polygon rule.

``Scalarization`` folds the weights of a whole y* grid at once and runs a
structure key's refusals once; per row it must agree with
``sweep_oracle.weights``, the fold and refusals of one y* as one call ran
them: the same key and constants, or the same exception.
"""

from __future__ import annotations

import contextlib
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sweep_oracle
from robustkkt import certify
from robustkkt.certify import ystar_grid
from robustkkt.cli import load_problem, resolve_problem_path, run_command
from robustkkt.funcdsl import parse_expr
from robustkkt.setcalc import DUAL_NORM, dual_ball
from robustkkt.subdiff import Scalarization
from test_sweep import VARIANTS, _variant

NORMS = ["l2", "l1", "linf"]
WALL_SETS = ["none", "example_2_2", *VARIANTS]


def _bits(a):
    """a's floats as int64, so that -0.0 counts."""
    return np.asarray(a, dtype=float).view(np.int64)


def polygon_rule(norm, walls, full=False):
    """The sweep's geometry as it was over the 64-gon ball of norm."""
    return sweep_oracle.SweepGeometry(dual_ball(DUAL_NORM[norm], 2, 64),
                                      norm == "l2", walls, full)


def distinct(comps, r):
    """Row r of each slot, (1, k, 2), with each vertex equal to an earlier
    one taken out; None if no slot has such a vertex in row r."""
    out = [U[[r]][:, [i for i in range(U.shape[1]) if not any(
        np.array_equal(U[r, i], U[r, j]) for j in range(i))]] for U in comps]
    return None if all(D.shape == (1, *U.shape[1:]) for D, U in zip(
        out, comps)) else out


def on_distinct_rows(rule, comps, ytheta):
    """rule.margins, each row with coincident vertices taken without them
    (the polygon rule scored their zero tie ray 0/0)."""
    with np.errstate(all="ignore"):
        out = rule.margins(comps, ytheta)
        for r in range(ytheta.size):
            alone = distinct(comps, r)
            if alone is not None:
                out[r] = rule.margins(alone, ytheta[[r]])[0]
    return out


def polygon_margins(norm, walls, comps, ytheta, full=False):
    """The polygon rule's margins, on distinct rows."""
    return on_distinct_rows(polygon_rule(norm, walls, full), comps, ytheta)


def assert_coincident_rows(norm, walls, comps, ytheta, got):
    """No margin is NaN, and each row with coincident vertices equals the
    same row without them, within 4 ulps of max(1, |margin|): the products
    <u, w> go through one matmul per slot, whose rounding may follow the
    slot's vertex count."""
    assert not np.isnan(got).any()
    for r in range(ytheta.size):
        alone = distinct(comps, r)
        if alone is not None:
            want = certify._SweepGeometry(norm, walls).margins(
                alone, ytheta[[r]])[0]
            scale = np.max(np.abs(want), where=np.isfinite(want),
                           initial=1.0)
            assert np.allclose(got[r], want, rtol=0.0,
                               atol=4 * np.spacing(scale)), (r, want)


def _sweep_walls(spec, region, **kw):
    """The wall sets of the geometry a sweep builds (its masks' cuts)."""
    built = []
    init = certify._SweepGeometry.__init__

    def spy(self, norm, walls):
        built.append(walls)
        init(self, norm, walls)

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


_COORD = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.0]),
                   st.floats(-3, 3, allow_subnormal=False))


def _vertex(norm):
    """A vertex u: generic; -2^e times a vertex of the norm's 64-gon ball,
    so that -u/|u| lies exactly on one of its angles; near the negative x
    axis, so that -u/|u| lies on either side of +-pi; or a ball vertex
    turned by a small angle, so that several land in one gap."""
    V = dual_ball(DUAL_NORM[norm], 2, 64).vertices
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
def _slots(draw, norm):
    """Component slots (rows, k, 2) of one batch, with coincident and zero
    vertices among them, and their ytheta."""
    rows = draw(st.integers(1, 5))
    comps = []
    for k in draw(st.lists(st.integers(1, 4), min_size=1, max_size=2)):
        U = np.array([[draw(_vertex(norm)) for _ in range(k)]
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


def assert_same_margins(norm, walls, comps, ytheta):
    """Bit-equal to the polygon rule (the l1 and linf norms) on distinct
    rows, and a row with coincident vertices as it is without them."""
    geometry = certify._SweepGeometry(norm, walls)
    assert_coincident_rows(norm, walls, comps, ytheta,
                           geometry.margins(comps, ytheta))
    got = on_distinct_rows(geometry, comps, ytheta)
    want = polygon_margins(norm, walls, comps, ytheta)
    assert got.shape == want.shape
    assert np.array_equal(_bits(got), _bits(want)), (got, want)


@settings(max_examples=400, deadline=None)
@given(st.data(), st.sampled_from(["l1", "linf"]),
       st.sampled_from(WALL_SETS))
def test_margins_bit_equal(wall_sets, data, norm, walls):
    comps, ytheta = data.draw(_slots(norm))
    assert_same_margins(norm, wall_sets[walls], comps, ytheta)


README_SWEEPS = [
    ["pseudoconvex", "--problem", "example_2_2", "--at", "0,0",
     "--type", "I", "--region", "-2,2,-2,2"],
    ["pseudoconvex", "--problem", "example_2_3", "--at", "0,0",
     "--type", "II", "--region", "-2,2,-2,2"],
    # segments (two exact directions per set), and INCONCLUSIVE samples
    ["pseudoconvex", "--problem", "example_3_2", "--at", "0,0",
     "--type", "I", "--region", "-2,2,-2,2", "--y-res", "12"],
]


def _norm_copy(tmp_path, name, norm):
    """A copy of a bundled problem in another norm."""
    text = resolve_problem_path(name).read_text()
    assert "norm = l2" in text
    path = tmp_path / f"{name}_{norm}.problem"
    path.write_text(text.replace("norm = l2", f"norm = {norm}"))
    return path


@pytest.mark.parametrize("argv", README_SWEEPS,
                         ids=["2.2-I", "2.3-II", "3.2-I"])
def test_margins_bit_equal_on_sweeps(monkeypatch, tmp_path, argv):
    """Every batch the README sweeps stack on their problems' l1 and linf
    copies, against the polygon rule built alike."""
    seen = []
    margins = certify._SweepGeometry.margins

    def spy(self, comps, ytheta):
        got = margins(self, comps, ytheta)
        old = polygon_rule(self.norm, _walls(self))
        assert np.array_equal(_bits(got), _bits(old.margins(comps, ytheta)))
        seen.append((self.norm, got.size))
        return got

    monkeypatch.setattr(certify._SweepGeometry, "margins", spy)
    for norm in ("l1", "linf"):
        copy = _norm_copy(tmp_path, argv[2], norm)
        with contextlib.redirect_stdout(io.StringIO()):
            assert run_command([*argv[:2], str(copy), *argv[3:]]) in (0, 2)
        assert sum(n for nm, n in seen if nm == norm) >= 100


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


@pytest.mark.parametrize("norm", NORMS)
def test_known_rays(wall_sets, norm):
    """The rays every row scores, as their boundary points r/||r||: the
    ball's vertices in the l1 and linf norms (the l2 ball has none), then
    each mask's wall rays, which only that mask admits."""
    for walls in wall_sets.values():
        geometry = certify._SweepGeometry(norm, walls)
        W = np.vstack(walls)
        perp = np.column_stack([-W[:, 1], W[:, 0]])
        want = np.vstack([perp, -perp])
        if norm != "l2":
            want = np.vstack([dual_ball(DUAL_NORM[norm], 2).vertices, want])
        norms = [np.linalg.norm(r, ord={"l1": 1, "l2": 2, "linf": np.inf}[
            norm]) for r in want]
        known, ok = geometry.known
        assert np.array_equal(_bits(known), _bits(want / np.c_[norms]))
        assert ok.shape == (len(want), 1, len(walls))
        assert not np.any(ok[len(want) - 2 * len(W):, 0].T & ~np.tile(
            geometry.wall_owner, 2))


def assert_in_disk_bracket(got, lo, hi):
    """Each margin within 1e-12 of its bracket [lo, hi] by
    sweep_oracle.disk_margins; -inf (a negative margin) only where lo is
    at most 1e-12, and a finite one, at least 0, where hi is at least
    -1e-12."""
    for g, a, b in zip(np.ravel(got).tolist(), np.ravel(lo).tolist(),
                       np.ravel(hi).tolist()):
        if g == -math.inf:
            assert a <= 1e-12, (g, a, b)
        else:
            assert a - 1e-12 <= g <= b + 1e-12, (g, a, b)


def assert_disk_margins(walls, comps, ytheta):
    """The sweep's l2 margins against the exact-disk oracle, and a row with
    coincident vertices as it is without them."""
    got = certify._SweepGeometry("l2", walls).margins(comps, ytheta)
    assert_coincident_rows("l2", walls, comps, ytheta, got)
    for r, row in enumerate(got):
        assert_in_disk_bracket(row, *sweep_oracle.disk_margins(
            [U[[r]] for U in comps], ytheta[[r]], walls))


@settings(max_examples=60, deadline=None)
@given(st.data(), st.sampled_from(WALL_SETS))
def test_margins_match_the_disk(wall_sets, data, walls):
    comps, ytheta = data.draw(_slots("l2"))
    assert_disk_margins(wall_sets[walls], comps, ytheta)


def test_margin_of_a_slot_highs_missed():
    """A slot where HiGHS, over the 64-gon with the exact directions, gave
    0.8819212210223426, 4.3e-8 below the optimum at -u_3."""
    U = np.array([[[1.0, -0.0], [0.55557023, -0.83146961],
                   [0.88192174, -0.47139585]]])
    none = [np.zeros((0, 2))]
    got = certify._SweepGeometry("l2", none).margins([U], np.zeros(1))
    assert_in_disk_bracket(got, *sweep_oracle.disk_margins(
        [U], np.zeros(1), none))
    assert abs(got[0, 0] - 0.88192126) < 1e-8


# the 64-gon holds the disk of radius cos(pi/64)
_GAP = 1.0 / math.cos(math.pi / 64) - 1.0


def assert_near_the_polygon(got, old, ytheta):
    """l2 margins got against the polygon rule's old, as the disk holds the
    polygon and the polygon cos(pi/64) times the disk: no NaN entry; where
    both are finite, at least old - 4 ulps of
    max(1, |old|) and at most old + _GAP (old + ytheta); and -inf (a
    negative margin) on one side only against a margin the other side's
    ball misses, at most _GAP ytheta above 0, or a zero one rounded the
    other way, at most 4 ulps."""
    assert not (np.isnan(got).any() or np.isnan(old).any())
    yt = np.broadcast_to(ytheta[:, None], old.shape)
    ulps = 4 * np.spacing(1.0) * np.maximum(1.0, np.abs(old))
    both = np.isfinite(got) & np.isfinite(old)
    rise = got[both] - old[both]
    assert np.all(rise >= -ulps[both]), (got, old)
    assert np.all(rise <= _GAP * (old[both] + yt[both]) + ulps[both]), (
        got, old)
    lost, won = np.isneginf(got) & np.isfinite(old), np.isneginf(old) & \
        np.isfinite(got)
    assert np.all(old[lost] <= ulps[lost]), (got, old)
    assert np.all(got[won] <= _GAP * yt[won] + ulps[won]), (got, old)


@settings(max_examples=400, deadline=None)
@given(st.data(), st.sampled_from(WALL_SETS))
def test_margins_near_the_full_rule(wall_sets, data, walls):
    """l2, near the polygon rule with every 64-gon vertex a candidate
    (full) and without."""
    comps, ytheta = data.draw(_slots("l2"))
    got = certify._SweepGeometry("l2", wall_sets[walls]).margins(
        comps, ytheta)
    for full in (True, False):
        assert_near_the_polygon(got, polygon_margins(
            "l2", wall_sets[walls], comps, ytheta, full), ytheta)


BUNDLED = ["example_2_2", "example_2_3", "example_3_2",
           "example_3_2_printedg2", "example_3_5"]


def _verdicts(spec, xbar, ptype, y_resolution):
    try:
        return certify.pseudoconvex_test(
            spec, xbar, ptype, [-2, 2, -2, 2],
            y_resolution=y_resolution).verdicts.tolist()
    except Exception as exc:  # the class and message are what must match
        return type(exc), str(exc)


@pytest.mark.parametrize("name", BUNDLED)
def test_verdicts_of_the_full_rule(monkeypatch, tmp_path, name):
    """Every sample's verdict, in the problem's l2 norm and its l1 and
    linf copies, type I and II, y-res 6, 12, 24 and 48, at the origin and
    at (0.3, -1.2), as the polygon rule gives it, and in l2 also with
    every 64-gon vertex a candidate (full; in l1 and linf the two rules
    are one)."""
    specs = [load_problem(name)] + [
        load_problem(_norm_copy(tmp_path, name, norm))
        for norm in ("l1", "linf")]
    cases = [(spec, np.array(xbar), ptype, y) for spec in specs
             for xbar in ([0.0, 0.0], [0.3, -1.2])
             for ptype in ("I", "II") for y in (6, 12, 24, 48)]
    got = [_verdicts(*case) for case in cases]
    assert any(isinstance(v, list) and "VERIFIED-COMMON-W" in v
               for v in got)
    for full in (False, True):
        built = []

        def polygon(norm, walls):
            built.append(norm)
            return polygon_rule(norm, walls, full)

        monkeypatch.setattr(certify, "_SweepGeometry", polygon)
        checked = [(case, v) for case, v in zip(cases, got)
                   if not full or case[0].norm == "l2"]
        assert [_verdicts(*case) for case, _ in checked] == [
            v for _, v in checked]
        assert set(built) == ({"l2"} if full else set(NORMS))
