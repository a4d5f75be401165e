import numpy as np
import pytest

from robustkkt.funcdsl import (
    DomainError,
    NonsmoothPointError,
    UnsupportedStructureError,
    parse_expr,
    smooth_gradient,
)
from robustkkt.robustfeas import (
    DEFAULT_VGRID,
    UncertainConstraint,
    scenario_envelope,
)
from robustkkt.setcalc import Polytope, hull, polytope_equal
from robustkkt.subdiff import direct_subdiff, limiting_subdiff, sup_rule

from genexpr import (
    one_sided_derivative,
    random_convex_expr,
    random_point,
    random_supported_expr,
    sampled_clarke_derivative,
)


def _single(res):
    assert res.set.ncomponents == 1
    return res.set.components[0]


def _sup_rule(con, x, mode="hull"):
    """sup_rule over the active scenarios of one scenario_envelope scan."""
    _, actives = scenario_envelope(con, x, DEFAULT_VGRID)
    return sup_rule(con, x, actives, mode)


class TestWorkedExampleSets:
    def test_convex_kink_interval(self, spec22, origin):
        res = limiting_subdiff(spec22.objective("f1"), origin, mode="hull")
        assert polytope_equal(_single(res), Polytope([[-5, -0.4], [5, -0.4]]))
        assert res.is_exact

    def test_g2_hull_example_3_2(self, spec32, origin):
        g2 = parse_expr("-3*abs(x1) + v*x2 - 2", 2)
        res = limiting_subdiff(g2, origin, 1.0, mode="hull")
        assert polytope_equal(_single(res), Polytope([[-3, 1], [3, 1]]))

    def test_concave_kink_two_point_vs_hull(self, spec32, origin):
        f2 = spec32.objective("f2")
        lim = limiting_subdiff(f2, origin)
        got = sorted(c.vertices.tolist() for c in lim.set.components)
        assert got == [[[-1.0, -3.0]], [[1.0, -3.0]]]
        assert lim.exactness == "outer-estimate"
        hl = limiting_subdiff(f2, origin, mode="hull")
        assert polytope_equal(_single(hl), Polytope([[-1, -3], [1, -3]]))

    def test_f3_engine_derivation_flags_discrepancy(self, spec32, origin):
        # the printed set has second components {-1, 1}; the kink of
        # abs(x2 - 1) is inactive at x2 = 0, so the engine derives {+1}
        res = limiting_subdiff(spec32.objective("f3"), origin, mode="hull")
        assert polytope_equal(_single(res), Polytope([[-0.5, 1], [0.5, 1]]))
        printed = spec32.fixture_for("f3", origin)
        assert printed is not None and printed.ncomponents == 2

    def test_smooth_point_gradient_singleton(self, spec32):
        x = np.array([1.0, 2.0])
        for mode in ("limiting", "hull"):
            res = limiting_subdiff(spec32.objective("f1"), x, mode=mode)
            comp = _single(res)
            assert comp.nverts == 1
            assert np.allclose(comp.vertices[0],
                               smooth_gradient(spec32.objective("f1"), x))
            assert res.is_exact


class TestStructureRules:
    def test_product_of_two_nonsmooth_rejected(self):
        e = parse_expr("abs(x1)*abs(x2)", 2)
        with pytest.raises(UnsupportedStructureError):
            limiting_subdiff(e, [0, 0])

    def test_product_ok_when_one_factor_smooth_at_point(self):
        e = parse_expr("abs(x1)*abs(x2)", 2)
        res = limiting_subdiff(e, [1.0, 0.0], mode="hull")
        assert polytope_equal(_single(res), Polytope([[0, -1], [0, 1]]))

    def test_nested_active_kinks_rejected(self):
        e = parse_expr("max(abs(x1), x2)", 2)
        with pytest.raises(UnsupportedStructureError):
            limiting_subdiff(e, [0, 0])

    def test_inactive_nesting_fine(self):
        e = parse_expr("max(abs(x1), x2)", 2)
        res = limiting_subdiff(e, [0.0, 2.0])  # x2 branch wins strictly
        assert np.allclose(_single(res).vertices, [[0, 1]])

    def test_shared_atom_merge_is_exact(self):
        # -5|x1| + 1.8|x1| written as separate terms merges to -3.2|x1|
        e = parse_expr("-5*abs(x1) + 1.8*abs(x1) + 0.625*x2", 2)
        res = limiting_subdiff(e, [0, 0])
        got = sorted(c.vertices.tolist() for c in res.set.components)
        assert np.allclose(got, [[[-3.2, 0.625]], [[3.2, 0.625]]])

    def test_max_tie_of_affine(self):
        e = parse_expr("max(x1, 2*x1)", 2)
        res = limiting_subdiff(e, [0, 0.5])
        assert polytope_equal(_single(res), Polytope([[1, 0], [2, 0]]))
        assert res.is_exact

    def test_negative_coefficient_max_union(self):
        e = parse_expr("-max(x1, 2*x1)", 2)
        res = limiting_subdiff(e, [0, 0])
        got = sorted(c.vertices.tolist() for c in res.set.components)
        assert got == [[[-2.0, 0.0]], [[-1.0, 0.0]]]

    def test_sqrt_at_zero_rejected(self):
        with pytest.raises(DomainError):
            limiting_subdiff(parse_expr("sqrt(abs(x1))", 1), [0.0])


class TestSupRule:
    def test_example_3_2_g1(self, spec32, origin):
        res = _sup_rule(spec32.constraint("g1"), origin)
        assert polytope_equal(_single(res), Polytope([[1, 0], [2, 0]]))

    def test_example_3_5_g1(self, spec35, origin):
        res = _sup_rule(spec35.constraint("g1"), origin)
        assert polytope_equal(_single(res),
                              Polytope([[-1 / 64, 1 / 32], [1 / 64, 1 / 32]]),
                              tol=1e-12)

    def test_v_free_reduces_to_limiting(self):
        e = parse_expr("abs(x1) + x2", 2)
        res = _sup_rule(UncertainConstraint("g", e), [0, 0])
        direct = limiting_subdiff(e, [0, 0], mode="hull")
        assert polytope_equal(hull(res.set), hull(direct.set))

    def test_limiting_mode_unions_scenarios(self):
        # at x = 0 the envelope -(v^2 - 1)^2 ties at v = -1 and v = 1,
        # whose gradients in x1 are v
        e = parse_expr("v*x1 - (v^2 - 1)^2", 1)
        con = UncertainConstraint("g", e, -1, 1)
        res = _sup_rule(con, [0.0], mode="limiting")
        assert res.rules == ("sup-rule(v=-1)", "sup-rule(v=1)")
        got = sorted(c.vertices.tolist() for c in res.set.components)
        assert got == [[[-1.0]], [[1.0]]]
        assert res.exactness == "outer-estimate"
        hulled = _sup_rule(con, [0.0], mode="hull")
        assert polytope_equal(_single(hulled), Polytope([[-1.0], [1.0]]))
        assert hulled.exactness == "outer-estimate"


class TestScalarized:
    def test_zero_weights_give_origin(self, spec32, origin):
        sc = direct_subdiff(np.zeros(3), spec32.objectives, origin)
        assert np.allclose(sc.set.all_vertices(), 0.0)

    def test_unit_vector_selects_objective(self, spec32, origin):
        sc = direct_subdiff([1.0, 0.0, 0.0], spec32.objectives, origin)
        single = limiting_subdiff(spec32.objectives[0], origin)
        assert polytope_equal(hull(sc.set), hull(single.set))


class TestOracles:
    def test_support_matches_one_sided_derivative_convex(self):
        # convex atoms with nonnegative weights: the limiting set's support
        # function equals the one-sided directional derivative
        rng = np.random.default_rng(33)
        instances = 0
        while instances < 120:
            dim = int(rng.integers(1, 4))
            e = random_convex_expr(rng, dim)
            x = random_point(rng, dim)
            res = limiting_subdiff(e, x)
            V = res.set.all_vertices()
            for _ in range(5):
                u = rng.standard_normal(dim)
                u /= np.linalg.norm(u)
                dd = one_sided_derivative(e, x, u)
                sup = float(np.max(V @ u))
                assert abs(dd - sup) <= 1e-5 * max(1.0, abs(sup)), \
                    f"{e} at {x} dir {u}"
            instances += 1

    def test_hull_support_matches_sampled_clarke(self):
        # atoms are pinned through the query point so the expression's
        # pieces are cones there and the sampled quotient is clean
        rng = np.random.default_rng(34)
        instances = 0
        while instances < 60:
            dim = int(rng.integers(2, 4))
            x = random_point(rng, dim)
            e = random_supported_expr(rng, dim, disjoint_supports=True,
                                      through=x)
            try:
                res = limiting_subdiff(e, x, mode="hull")
            except (DomainError, UnsupportedStructureError):
                continue
            V = res.set.all_vertices()
            for _ in range(4):
                u = rng.standard_normal(dim)
                u /= np.linalg.norm(u)
                clarke = sampled_clarke_derivative(e, x, u, rng)
                sup = float(np.max(V @ u))
                assert abs(clarke - sup) <= 1e-4 * max(1.0, abs(sup)), \
                    f"{e} at {x}"
            instances += 1

    def test_limiting_subset_of_hull(self):
        rng = np.random.default_rng(35)
        checked = 0
        while checked < 200:
            dim = int(rng.integers(1, 4))
            e = random_supported_expr(rng, dim)
            x = random_point(rng, dim)
            try:
                lim = limiting_subdiff(e, x)
                hl = limiting_subdiff(e, x, mode="hull")
            except (DomainError, UnsupportedStructureError):
                continue
            H = hl.set.components[0]
            for vert in lim.set.all_vertices():
                inside, res = H.contains(vert, tol=1e-9)
                assert inside, f"{e} at {x}: {vert} escapes hull by {res}"
            checked += 1

    def test_hull_mode_is_hull_of_limiting(self):
        rng = np.random.default_rng(37)
        checked = 0
        while checked < 100:
            dim = int(rng.integers(1, 4))
            e = random_supported_expr(rng, dim)
            x = random_point(rng, dim)
            try:
                lim = limiting_subdiff(e, x)
                hl = limiting_subdiff(e, x, mode="hull")
            except (DomainError, UnsupportedStructureError):
                continue
            assert polytope_equal(hl.set.components[0], hull(lim.set),
                                  tol=1e-12)
            checked += 1

    def test_smooth_agreement_both_modes(self):
        rng = np.random.default_rng(36)
        checked = 0
        while checked < 100:
            dim = int(rng.integers(1, 4))
            e = random_supported_expr(rng, dim)
            x = random_point(rng, dim)
            from robustkkt.funcdsl import active_kinks
            if active_kinks(e, x, tol=1e-5):
                continue
            try:
                g = smooth_gradient(e, x)
            except (DomainError, NonsmoothPointError):
                continue
            for mode in ("limiting", "hull"):
                res = limiting_subdiff(e, x, mode=mode)
                comp = _single(res)
                assert comp.nverts == 1
                assert np.allclose(comp.vertices[0], g, atol=1e-12)
            checked += 1
