"""Differential tests of the LP-free planar paths against the LPs they
replace: the monotone-chain hull reduction and the closed-form witness
margin of the pseudo-convexity sweep; and of the sweep's witness ball, the
norm ball, against the exact disk and the polygons it replaced."""

import contextlib
import io
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sweep_oracle
from genexpr import random_convex_expr, random_point, random_supported_expr
from helpers import ball_polytope
from robustkkt import certify, lp, setcalc
from robustkkt.cli import run_command
from robustkkt.setcalc import DUAL_NORM, Polytope, PolytopeSet, \
    minkowski_sum
from robustkkt.subdiff import limiting_subdiff
from sweep_oracle import _lp_witness_margin, _witness_ball, \
    component_witness_margin
from test_sweep_oracle import assert_in_disk_bracket, \
    assert_near_the_polygon, polygon_rule


def assert_same_reduction(V):
    V = np.asarray(V, dtype=float)
    planar = V[setcalc._planar_keep_mask(V)]
    reference = setcalc._lp_extreme_points(V)
    assert planar.shape == reference.shape
    assert np.array_equal(planar, reference)


class TestPlanarHull:
    def test_engine_inputs(self, monkeypatch):
        """Every multi-point reduction the engine makes on random
        expressions and Minkowski sums."""
        seen = []
        orig = setcalc._extreme_points

        def spy(V):
            if V.shape[0] > 2 and V.shape[1] == 2:
                seen.append(V.copy())
            return orig(V)

        monkeypatch.setattr(setcalc, "_extreme_points", spy)
        rng = np.random.default_rng(2024)
        for _ in range(40):
            x = random_point(rng, 2)
            e = random_supported_expr(rng, 2, through=x)
            limiting_subdiff(e, x, None, "hull")
            c = random_convex_expr(rng, 2)
            limiting_subdiff(c, x, None, "hull")
        for _ in range(30):
            a = Polytope(rng.uniform(-1, 1, size=(rng.integers(2, 6), 2)))
            b = Polytope(np.round(rng.uniform(-2, 2,
                                              size=(rng.integers(2, 6), 2))))
            minkowski_sum(PolytopeSet([a]), PolytopeSet([b]))
        assert len(seen) >= 30
        for V in seen:
            assert_same_reduction(V)

    @given(st.lists(st.tuples(st.floats(-4, 4, width=16),
                              st.floats(-4, 4, width=16)),
                    min_size=3, max_size=9))
    @settings(max_examples=120, deadline=None)
    def test_hypothesis_points(self, pts):
        V = setcalc._dedup_rows(np.array(pts, dtype=float))
        if V.shape[0] > 2:
            assert_same_reduction(V)

    def test_collinear(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            t = rng.integers(-6, 7, size=rng.integers(3, 8)) / 4.0
            d = rng.integers(-3, 4, size=2).astype(float)
            V = setcalc._dedup_rows(np.outer(t, d) + [0.5, -1.25])
            if V.shape[0] > 2:
                assert_same_reduction(V)
                # only the two ends of a segment survive
                assert setcalc._extreme_points(V).shape[0] == 2

    def test_duplicate_points(self):
        V = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 1.0],
                      [0.0, 1.0], [0.25, 0.25]])
        assert_same_reduction(V)
        assert setcalc._extreme_points(V).shape[0] == 3

    @pytest.mark.parametrize("offset", [-1e-13, 1e-13, -1e-11, 1e-11])
    def test_points_just_off_a_segment(self, offset):
        # a point 1e-13 outside an edge is within VERTEX_TOL and goes; one
        # 1e-11 outside is a vertex of its own
        V = setcalc._dedup_rows(np.array(
            [[0.0, 0.0], [2.0, 0.0], [1.0, offset], [1.0, 1.0]]))
        assert_same_reduction(V)
        kept = setcalc._extreme_points(V).shape[0]
        assert kept == (4 if offset <= -1e-11 else 3)

    @pytest.mark.parametrize("gap,kept", [(1.5e-12, 3), (3e-12, 4)])
    def test_point_just_off_a_diagonal(self, gap, kept):
        # the infinity-norm distance to the edge y = x is gap / 2, reached
        # where the two coordinate gaps tie, not where either vanishes
        V = setcalc._dedup_rows(np.array(
            [[0.0, 0.0], [2.0, 2.0], [0.0, 2.0],
             [1.0 + gap / 2, 1.0 - gap / 2]]))
        assert_same_reduction(V)
        assert setcalc._extreme_points(V).shape[0] == kept

    def test_near_duplicates_out_of_lex_order(self):
        V = setcalc._dedup_rows(np.array(
            [[0.0, 1.0], [1e-13, 0.0], [1e-13, 1.0], [1.0, 0.5]]))
        assert V.shape[0] == 4
        assert_same_reduction(V)


def _upper_hull_by_chords(a, b) -> list[int]:
    """The upper hull by brute force in rationals: of equal a the highest
    b, then every point strictly above each chord between its neighbours."""
    best = {}
    for i in np.lexsort((b, a)).tolist():
        best[a[i]] = i
    idx = [best[t] for t in sorted(best)]
    F = [(Fraction(a[i]), Fraction(b[i])) for i in idx]
    keep = []
    for m in range(len(F)):
        above = all((F[m][1] - F[i][1]) * (F[k][0] - F[i][0])
                    > (F[k][1] - F[i][1]) * (F[m][0] - F[i][0])
                    for i in range(m) for k in range(m + 1, len(F)))
        if above:
            keep.append(idx[m])
    return keep


class TestUpperHull:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from([0.0, -0.0, 1.0, 0.5, -2.0]),
                              st.floats(-3, 3)), min_size=1, max_size=8),
           st.lists(st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)),
                    max_size=8))
    def test_matches_chords(self, grid, free):
        """Repeated a, collinear runs (b = 2a on the sampled a) and general
        points, against the rational brute force."""
        pts = grid + [(t, 2 * t) for t, _ in grid] + free
        a, b = (np.array(c) for c in zip(*pts))
        assert setcalc.upper_hull(a, b).tolist() == \
            _upper_hull_by_chords(a, b)


def assert_same_residual(p, V):
    p = np.asarray(p, dtype=float)
    exact = setcalc._planar_residual(p, V)
    assert exact == setcalc._membership_residual(p, V)
    return exact


class TestPlanarMembership:
    def test_engine_polytopes(self):
        """The components of random subdifferentials, at their vertices,
        edge midpoints, points just off them and random points."""
        rng = np.random.default_rng(77)
        inside = outside = 0
        for _ in range(25):
            x = random_point(rng, 2)
            for e in (random_supported_expr(rng, 2, through=x),
                      random_convex_expr(rng, 2)):
                for comp in limiting_subdiff(e, x, None, "hull").set.components:
                    V = comp.vertices
                    mids = (V + np.roll(V, 1, axis=0)) / 2
                    for p in np.vstack([V, mids, mids + 1e-13, V.mean(axis=0),
                                        V[0] + rng.normal(size=2)]):
                        res = assert_same_residual(p, V)
                        inside += res == 0.0
                        outside += res > 0.0
        assert inside >= 50 and outside >= 50

    @given(st.lists(st.tuples(st.floats(-4, 4, width=16),
                              st.floats(-4, 4, width=16)),
                    min_size=1, max_size=9),
           st.tuples(st.floats(-5, 5), st.floats(-5, 5)))
    @settings(max_examples=120, deadline=None)
    def test_hypothesis_polygons(self, pts, p):
        assert_same_residual(p, Polytope(np.array(pts, dtype=float)).vertices)

    def test_contains_solves_no_lp_in_the_plane(self, monkeypatch):
        calls = []
        orig = lp.LPBuilder.solve

        def counting(self, *args, **kwargs):
            calls.append(1)
            return orig(self, *args, **kwargs)

        monkeypatch.setattr(lp.LPBuilder, "solve", counting)
        square = Polytope([[0, 0], [1, 0], [0, 1], [1, 1]])
        assert square.contains([0.5, 0.5]) == (True, 0.0)
        assert square.contains([2.0, 0.5]) == (False, 1.0)
        assert calls == []
        # past the exact LP's size too, the residual is the exact distance
        angles = np.linspace(0, 2 * np.pi, 158)[:-1]
        ring = Polytope(np.column_stack([np.cos(angles), np.sin(angles)]))
        assert ring.nverts == 157
        p = np.array([2.0, 0.3])
        _, res = ring.contains(p)
        assert calls == []
        P, scale = setcalc._integer_plane(np.vstack([p, ring.vertices]))
        num, den = setcalc._hull_distance(P[0], [
            P[k] for k in setcalc._monotone_chain(P, range(1, len(P)))])
        assert res == num / (den * scale)
        assert res == pytest.approx(
            setcalc._membership_residual(p, ring.vertices), rel=1e-9)


def _random_margin_case(rng, norm):
    comp = Polytope(rng.normal(size=(int(rng.integers(1, 6)), 2)))
    pball = ball_polytope(DUAL_NORM[norm], 2, 64)
    T = int(rng.integers(0, 3))
    # rows of _constraint_rows: (constraint, scenario, base, vertex rows)
    con_rows = [(t + 1, None, 0.0,
                 rng.normal(size=(int(rng.integers(1, 3)), 2)))
                for t in range(T)]
    rows = [t for t in range(T) if rng.random() < 0.7]
    ngen = int(rng.integers(0, 3))
    N = np.zeros((0, 2))
    if ngen:
        G = rng.normal(size=(ngen, 2))
        # a line in the normal cone is the pair g, -g; it pins w to a line
        N = np.vstack([G, -G[rng.random(ngen) < 0.35]])
    nrm = float(rng.uniform(0.1, 3.0))
    ytheta = 0.0 if rng.random() < 0.3 else float(rng.uniform(0.0, 1.0))
    return comp, nrm, ytheta, rows, con_rows, N, pball


class TestPlanarMargin:
    @pytest.mark.parametrize("norm", ["l1", "l2", "linf"])
    def test_matches_highs(self, norm):
        rng = np.random.default_rng({"l1": 11, "l2": 12, "linf": 13}[norm])
        agreed = 0
        for _ in range(150):
            comp, nrm, ytheta, rows, con_rows, N, pball = \
                _random_margin_case(rng, norm)
            args = (comp, nrm, ytheta, rows, con_rows, N, pball, norm == "l2")
            planar = component_witness_margin(*args)
            ball = _witness_ball(comp.vertices, pball, norm == "l2")
            cuts = certify._witness_cuts(2, rows, con_rows, N)
            highs = _lp_witness_margin(comp.vertices, nrm * ytheta,
                                       nrm * ball, cuts)
            if planar is None or highs is None:
                # a margin of 0 sits on the LP's feasibility boundary
                other = planar if highs is None else highs
                assert other is None or other[0] <= 1e-9
                continue
            assert planar[0] == pytest.approx(highs[0], abs=1e-9)
            self._assert_witness(planar, *args)
            agreed += 1
        assert agreed >= 60

    @staticmethod
    def _assert_witness(found, comp, nrm, ytheta, rows, con_rows, N, pball,
                        l2_exact_dirs):
        delta, w = found
        for t in rows:
            assert np.all(con_rows[t][3] @ w <= 1e-9)
        for g in N:
            assert g @ w <= 1e-9
        assert np.max(comp.vertices @ w) + nrm * ytheta <= -delta + 1e-9
        ball = [pball.vertices]
        if l2_exact_dirs:
            ball += [-u[None, :] / np.linalg.norm(u) for u in comp.vertices
                     if np.linalg.norm(u) > 1e-15]
        ball = np.vstack(ball)
        inside, _ = Polytope(nrm * ball).contains(w)
        assert inside

    def test_lineality_pins_w_to_a_line(self):
        comp = Polytope([[1.0, 0.0]])
        # the line through (1, 0) in the normal cone, as the pair g, -g
        N = np.array([[1.0, 0.0], [-1.0, 0.0]])
        pball = ball_polytope(DUAL_NORM["linf"], 2, 64)
        delta, w = component_witness_margin(
            comp, 1.0, 0.0, [], {}, N, pball)
        # w = (0, t): <u, w> = 0 whatever t, so the margin is 0
        assert delta == pytest.approx(0.0, abs=1e-15)
        assert w[0] == pytest.approx(0.0, abs=1e-15)

    def test_no_nonnegative_margin(self):
        comp = Polytope([[1.0, 0.0], [-1.0, 0.0]])
        pball = ball_polytope("l2", 2, 64)
        # min_u -<u, w> <= 0 everywhere, and the offset makes it negative
        assert component_witness_margin(
            comp, 1.0, 0.5, [], {}, np.zeros((0, 2)), pball) is None


README_SWEEPS = [
    ["pseudoconvex", "--problem", "example_2_2", "--at", "0,0",
     "--type", "I", "--region", "-2,2,-2,2"],
    ["pseudoconvex", "--problem", "example_2_3", "--at", "0,0",
     "--type", "II", "--region", "-2,2,-2,2"],
]


@pytest.mark.parametrize("argv", README_SWEEPS, ids=["type-I", "type-II"])
def test_bundled_sweeps_solve_no_lp(monkeypatch, argv):
    calls = []
    orig = lp.LPBuilder.solve

    def counting(self, *args, **kwargs):
        calls.append(1)
        return orig(self, *args, **kwargs)

    monkeypatch.setattr(lp.LPBuilder, "solve", counting)
    with contextlib.redirect_stdout(io.StringIO()):
        assert run_command(argv) == 0
    assert calls == []



def _exact_dirs(U):
    """The directions -u/|u| the l2 witness polygon added for the rows u of
    U."""
    pball = ball_polytope("l2", 2, 64)
    return _witness_ball(np.asarray(U, dtype=float), pball,
                         True)[pball.nverts:]


NO_WALLS = [np.zeros((0, 2))]


def _margin(norm, U, ytheta=0.0):
    """The sweep's margin of one component with vertices U, no walls."""
    U = np.asarray(U, dtype=float).reshape(1, -1, 2)
    return certify._SweepGeometry(norm, NO_WALLS).margins(
        [U], np.array([ytheta]))[0, 0]


def assert_disk_margin(U, ytheta=0.0):
    """The sweep's l2 margin within 1e-12 of the exact disk's (no walls,
    so the oracle's bracket is one number); returns it."""
    got = _margin("l2", U, ytheta)
    U = np.asarray(U, dtype=float).reshape(1, -1, 2)
    assert_in_disk_bracket(got, *sweep_oracle.disk_margins(
        [U], np.array([ytheta]), NO_WALLS))
    return got


class TestSweepPolygon:
    """The sweep's witness ball at the inputs where the polygon it replaced
    (the 64-gon, with each component's exact directions merged in) needed
    care: the README sweeps' components, directions on the 64-gon's
    vertices, next to its diagonal vertex and below its lexicographic
    start, and segments.  In l2 the margins are the exact disk's
    (sweep_oracle.disk_margin); in l1 and linf the norm is the gauge of the
    box polygon, bit for bit."""

    @pytest.mark.parametrize("argv", README_SWEEPS, ids=["type-I", "type-II"])
    def test_bundled_components(self, monkeypatch, argv):
        """Every component slot the README sweeps stack, alone, near the
        polygon rule."""
        seen = []
        orig = certify._SweepGeometry.margins

        def spy(self, comps, ytheta):
            seen.extend((self, U, ytheta) for U in comps)
            return orig(self, comps, ytheta)

        monkeypatch.setattr(certify._SweepGeometry, "margins", spy)
        with contextlib.redirect_stdout(io.StringIO()):
            assert run_command(argv) == 0
        monkeypatch.undo()
        assert sum(U.shape[0] for _, U, _ in seen) >= 700
        for geometry, U, ytheta in seen:
            walls = [geometry.walls[own] for own in geometry.wall_owner]
            assert_near_the_polygon(
                geometry.margins([U], ytheta),
                polygon_rule("l2", walls).margins([U], ytheta), ytheta)

    @given(st.lists(st.floats(-np.pi, np.pi), min_size=1, max_size=2),
           st.floats(-1.0, 1.0))
    @example([0.0, 0.0], 0.0)
    @example([2.0, 2.0], 0.25)
    @example([1.0625, 1.0625], 1.0)
    @settings(max_examples=300, deadline=None)
    def test_hypothesis_directions(self, angles, ytheta):
        t = np.array(angles)
        U = -np.column_stack([np.cos(t), np.sin(t)])
        got = assert_disk_margin(U, ytheta)
        # coincident vertices have a zero tie ray, which scores the origin;
        # a negative margin is -inf with or without them
        if len(U) == 2 and np.array_equal(U[0], U[1]):
            alone = _margin("l2", U[:1], ytheta)
            assert got == alone or abs(got - alone) <= 4 * np.spacing(
                max(1.0, abs(got))), (got, alone)

    @pytest.mark.parametrize("extras", [[0.0, -1.0], [-1.0, 0.0], [1.0, 0.0],
                                        [-1.0, -0.0]],
                             ids=["down", "left", "right", "left-negzero"])
    def test_polygon_vertices(self, extras):
        """Along an axis the margin of the unit u is exactly |u| = 1."""
        assert assert_disk_margin(-np.array([extras])) == 1.0

    def test_neighbours_of_the_diagonal_vertex(self):
        V = ball_polytope("l2", 2, 64).vertices
        x, y = V[np.argmin(np.abs(np.arctan2(V[:, 1], V[:, 0]) - np.pi / 4))]
        for dx in (-np.inf, 0, np.inf):
            for dy in (-np.inf, 0, np.inf):
                e = [np.nextafter(x, dx) if dx else x,
                     np.nextafter(y, dy) if dy else y]
                assert_disk_margin(-np.array([e]))

    def test_below_the_lexicographic_start(self):
        # (-1.0, -1e-10), lexicographically below (-1, 0)
        e = _exact_dirs([[1.0, 1e-10]])
        assert e.tolist() == [[-1.0, -1e-10]]
        assert_disk_margin(-e)
        assert_disk_margin([[1.0, 1e-8]])

    def test_segment_component(self):
        for U in ([[1.0, 0.3], [-0.2, 1.0]], [[0.5, 0.4], [0.5, -2.0]],
                  [[3.0, 0.2], [-1.0, 0.7]]):
            for ytheta in (0.0, 0.25, -0.5):
                assert_disk_margin(U, ytheta)

    @pytest.mark.parametrize("norm", ["l1", "linf"])
    def test_box_balls(self, norm):
        """The norm of each ray is max <r, n>/h over the box polygon's
        edges, bit for bit, and so are the margins of the polygon rule."""
        geometry = certify._SweepGeometry(norm, NO_WALLS)
        _, normals, heights = sweep_oracle._planar_ball(ball_polytope(
            DUAL_NORM[norm], 2).vertices)
        t = np.linspace(-3.0, 3.0, 13)
        rays = np.column_stack([np.cos(t), np.sin(t)])
        assert np.array_equal(geometry.gauge(rays), np.max(
            (rays @ normals.T) / heights, axis=1))
        U = -rays[:, None, :]
        ytheta = np.linspace(-0.5, 0.5, 13)
        assert np.array_equal(geometry.margins([U], ytheta), polygon_rule(
            norm, NO_WALLS).margins([U], ytheta))
