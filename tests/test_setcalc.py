
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustkkt.setcalc import (
    ConeSpec,
    OmegaSpec,
    Polytope,
    PolytopeSet,
    SetCalcError,
    dual_ball,
    hull,
    minkowski_sum,
    normal_cone,
    scale,
    zero_in_sum,
)
from robustkkt.verify import _membership_mask

from helpers import polytope_equal


NO_CONE = np.zeros((0, 2))  # the normal cone of the whole plane


def seg(a, b):
    return PolytopeSet([Polytope([a, b])])


def pt(*p):
    return PolytopeSet.singleton(np.asarray(p, dtype=float))


class TestMinkowski:
    def test_identity_element(self):
        a = seg([-5, -0.4], [5, -0.4])
        out = minkowski_sum(a, pt(0, 0))
        assert polytope_equal(out.components[0], a.components[0])

    def test_interval_sum(self):
        out = minkowski_sum(seg([1, 0], [2, 0]), seg([0, 0], [1, 0]))
        # brute-force vertex-sum hull oracle
        sums = np.array([[va + vb for va, vb in zip(a, b)]
                         for a in [[1, 0], [2, 0]] for b in [[0, 0], [1, 0]]])
        lo, hi = sums.min(axis=0), sums.max(axis=0)
        assert polytope_equal(out.components[0], Polytope([lo, hi]))

    def test_union_translation(self):
        u = PolytopeSet([Polytope([[-3, 1]]), Polytope([[3, 1]])])
        out = minkowski_sum(u, pt(0, 1))
        got = sorted(c.vertices.tolist() for c in out.components)
        assert got == [[[-3.0, 2.0]], [[3.0, 2.0]]]

    def test_dimension_mismatch(self):
        with pytest.raises(SetCalcError):
            minkowski_sum(pt(0, 0), pt(0, 0, 0))

    def test_commutative_associative_random(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            polys = [Polytope(rng.uniform(-1, 1, size=(rng.integers(1, 4), 2)))
                     for _ in range(3)]
            a, b, c = (PolytopeSet([p]) for p in polys)
            ab = minkowski_sum(a, b)
            ba = minkowski_sum(b, a)
            assert polytope_equal(hull(ab), hull(ba), tol=1e-12)
            left = minkowski_sum(ab, c)
            right = minkowski_sum(a, minkowski_sum(b, c))
            assert polytope_equal(hull(left), hull(right), tol=1e-12)


class TestScaleHull:
    def test_scale_half(self):
        out = scale(seg([1, 0], [2, 0]), 0.5)
        assert polytope_equal(out.components[0], Polytope([[0.5, 0], [1, 0]]))

    def test_scale_zero_collapses(self):
        out = scale(seg([1, 0], [2, 0]), 0.0)
        assert out.ncomponents == 1
        assert np.allclose(out.components[0].vertices, [[0, 0]])

    def test_scale_negative(self):
        out = scale(seg([-1, 1], [1, 1]), -2.0)
        assert polytope_equal(out.components[0], Polytope([[-2, -2], [2, -2]]))

    def test_hull_of_two_points(self):
        u = PolytopeSet([Polytope([[-3, 1]]), Polytope([[3, 1]])])
        h = hull(u)
        assert polytope_equal(h, Polytope([[-3, 1], [3, 1]]))

    def test_hull_singleton(self):
        assert polytope_equal(hull(pt(2, 5)), Polytope([[2, 5]]))

    def test_hull_removes_center(self):
        square = Polytope([[0, 0], [1, 0], [0, 1], [1, 1], [0.5, 0.5]],
                          reduce=True)
        assert square.nverts == 4

    def test_hull_vertices_are_extreme(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            pts = rng.uniform(-1, 1, size=(rng.integers(3, 8), 2))
            h = hull(PolytopeSet([Polytope(pts)]))
            for i in range(h.nverts):
                others = np.delete(h.vertices, i, axis=0)
                inside, _ = Polytope(others).contains(h.vertices[i])
                assert not inside


class TestZeroInSum:
    def test_exact_cancellation(self):
        s = 2 ** 0.5 / 2
        res = zero_in_sum([pt(-s, 0), pt(s, 0)], NO_CONE)
        assert res.sat

    def test_unsat_interval(self):
        res = zero_in_sum([seg([1, 0], [2, 0])], NO_CONE)
        assert not res.sat

    def test_random_cancellation(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            p = rng.uniform(-3, 3, size=3)
            res = zero_in_sum([pt(*p), pt(*(-p))], np.zeros((0, 3)))
            assert res.sat

    def test_cone_absorbs(self):
        cone = np.array([[1.0, 0.0]])
        assert zero_in_sum([pt(-2, 0)], cone).sat
        assert not zero_in_sum([pt(2, 0)], cone).sat
        # a line in the cone is the pair g, -g
        assert zero_in_sum([pt(2, 0)],
                           np.array([[1.0, 0.0], [-1.0, 0.0]])).sat

    def test_brute_force_grid_oracle(self):
        # >= 200 random d=2 instances with <= 3 parts; weight grid 1e-3;
        # knife-edge instances (oracle min inside the resolution band) are
        # regenerated since the grid cannot decide them
        rng = np.random.default_rng(12)
        checked = 0
        while checked < 200:
            shapes = [(3,), (2, 2), (2, 1), (2,), (1, 1, 2)][rng.integers(5)]
            parts = []
            for k in shapes:
                parts.append(PolytopeSet([Polytope(
                    rng.uniform(-1, 1, size=(k, 2)))]))
            omin = _grid_oracle_min(parts)
            if 1e-9 < omin <= 8e-3:
                continue
            res = zero_in_sum(parts, NO_CONE)
            assert res.sat == (omin <= 1e-9), f"oracle {omin}, lp {res.sat}"
            if res.sat:
                total = sum(res.witness_points(parts))
                assert np.linalg.norm(total) <= 1e-9
            checked += 1

    def test_witness_points_sum_to_zero(self):
        parts = [seg([-1, 0], [1, 0]), pt(0.25, 0.0)]
        res = zero_in_sum(parts, NO_CONE)
        assert res.sat
        total = sum(res.witness_points(parts))
        assert np.linalg.norm(total) <= 1e-12


def _grid_oracle_min(parts, step=1e-3):
    grids = []
    for part in parts:
        V = part.components[0].vertices
        if V.shape[0] == 1:
            grids.append(V)
        elif V.shape[0] == 2:
            w = np.arange(0.0, 1.0 + step / 2, step)
            grids.append(np.outer(w, V[0]) + np.outer(1 - w, V[1]))
        else:
            w1 = np.arange(0.0, 1.0 + step / 2, step)
            pts = []
            for a in w1:
                w2 = np.arange(0.0, 1.0 - a + step / 2, step)
                pts.append(np.outer(np.full_like(w2, a), V[0])
                           + np.outer(w2, V[1])
                           + np.outer(1 - a - w2, V[2]))
            grids.append(np.vstack(pts))
    total = grids[0]
    for g in grids[1:]:
        total = (total[:, None, :] + g[None, :, :]).reshape(-1, 2)
        if total.shape[0] > 4_000_000:  # keep the oracle bounded
            keep = np.argsort(np.linalg.norm(total, axis=1))[:2_000_000]
            total = total[keep]
    return float(np.min(np.linalg.norm(total, axis=1)))


class TestDualBall:
    def test_linf_primal_gives_cross_polytope(self):
        b = dual_ball("linf", 2)
        assert sorted(b.vertices.tolist()) == [[-1, 0], [0, -1], [0, 1], [1, 0]]

    def test_l2_polygon_unit_norm(self):
        b = dual_ball("l2", 2, 64)
        norms = np.linalg.norm(b.vertices, axis=1)
        assert b.nverts == 64
        assert np.max(np.abs(norms - 1.0)) <= 1e-12

    def test_l2_contains_south_pole_exactly(self):
        b = dual_ball("l2", 2, 64)
        assert any(np.array_equal(v, [0.0, -1.0]) for v in b.vertices)

    def test_negation_symmetry_even_m(self):
        for m in (10, 12, 64):
            b = dual_ball("l2", 2, m)
            vs = {tuple(v) for v in b.vertices}
            assert all((-x, -y) in vs for x, y in vs)

    def test_l1_primal_gives_box(self):
        b = dual_ball("l1", 3)
        assert b.nverts == 8

    def test_unsupported(self):
        with pytest.raises(SetCalcError):
            dual_ball("l2", 4)
        with pytest.raises(SetCalcError):
            dual_ball("l2", 2, 4)


class TestNormalCone:
    def test_whole_space(self):
        N = normal_cone(OmegaSpec.whole(2), [3.7, -1])
        assert N.shape == (0, 2)

    def test_box_single_face(self):
        N = normal_cone(OmegaSpec.box([0, 0], [1, 1]), [0, 0.5])
        assert np.array_equal(N, [[-1, 0]])

    def test_box_corner_against_sampled_inequality(self):
        omega = OmegaSpec.box([0, 0], [1, 1])
        N = normal_cone(omega, [0, 0])
        got = sorted(N.tolist())
        assert got == [[-1, 0], [0, -1]]
        # normals satisfy <n, y - x> <= 0 for all y in the box
        rng = np.random.default_rng(4)
        Y = rng.uniform(0, 1, size=(50, 2))
        for n in N:
            assert np.all(Y @ n <= 1e-12)

    def test_outside_point_errors(self):
        with pytest.raises(SetCalcError):
            normal_cone(OmegaSpec.box([0, 0], [1, 1]), [2, 0])

    def test_halfspaces(self):
        omega = OmegaSpec.halfspaces([[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0])
        N = normal_cone(omega, [1.0, 0.0])
        assert np.array_equal(N, [[1, 0]])


class TestConeSpec:
    @given(st.lists(st.floats(-5, 5), min_size=3, max_size=3))
    @settings(max_examples=200, deadline=None)
    def test_interior_implies_membership(self, y):
        # -y in -int K, the weak-efficiency relation, puts y in K
        k = ConeSpec(pattern=(-1, 1, 1))
        if _membership_mask(-np.array([y]).T, k, "minus-int-K")[0]:
            assert k.contains(y)

    def test_theta_membership(self):
        k = ConeSpec(pattern=(-1, 1, 1))
        assert k.contains([0, 0, 1.5])
        assert not k.contains([0.5, 0, 1.5])
