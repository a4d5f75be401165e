import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustkkt.funcdsl import parse_expr
from robustkkt.robustfeas import ProblemSpec
from robustkkt.setcalc import ConeSpec, OmegaSpec
from robustkkt.verify import (
    DualTriple,
    VerifyError,
    _membership_mask,
    classify_point,
    converse_duality_check,
    dual_feasible,
    generate_feasible_samples,
    strong_duality_from,
    weak_duality_check,
)

K_MIXED = ConeSpec(pattern=(-1, 1, 1))
K_POS3 = ConeSpec(pattern=(1, 1, 1))


def member(y, cone, region):
    """_membership_mask on the one column y."""
    return bool(_membership_mask(np.array([y], dtype=float).T, cone,
                                 region)[0])


class TestConeMembership:
    def test_sign_blocked(self):
        # -K for pattern (<=0, >=0, >=0) is {y1 >= 0, y2 <= 0, y3 <= 0}
        assert not member([0, 1, 0], K_MIXED, "minus-K-minus-0")

    def test_zero_excluded_everywhere(self):
        for region in ("minus-K-minus-0", "minus-int-K"):
            assert not member([0.0, 0.0, 0.0], K_POS3, region)

    def test_strict_negativity_interior(self):
        assert member([-1, -1, -1], K_POS3, "minus-int-K")
        assert not member([-1, 0, -1], K_POS3, "minus-int-K")

    def test_boundary_in_minus_K(self):
        assert member([0, -1, 0], K_POS3, "minus-K-minus-0")

    @given(st.lists(st.floats(-3, 3, allow_nan=False), min_size=3,
                    max_size=3))
    @settings(max_examples=300, deadline=None)
    def test_interior_implies_punctured(self, y):
        if member(y, K_POS3, "minus-int-K"):
            assert member(y, K_POS3, "minus-K-minus-0")

    def test_theta_scaling_preserves_non_membership(self):
        # adding ||x - xbar|| theta with theta in K moves away from -int K
        rng = np.random.default_rng(2)
        for _ in range(200):
            delta = rng.uniform(-2, 2, size=3)
            theta = np.abs(rng.uniform(0, 1, size=3))
            nrm = rng.uniform(0, 2)
            if not member(delta + nrm * theta, K_POS3, "minus-int-K"):
                assert not member(delta + 2 * nrm * theta, K_POS3,
                                  "minus-int-K")


class TestClassify:
    def test_weak_quasi_3_2(self, spec32, origin):
        v = classify_point(spec32, origin, "weak-quasi", (-5, 1, -5, 5), 101)
        assert v.no_counterexample and v.feasible_checked > 1000

    def test_quasi_with_2_3_objectives(self, spec23, origin):
        v = classify_point(spec23, origin, "quasi", (-3, 3, -4, 1), 101)
        assert v.no_counterexample

    def test_single_objective_counterexample(self):
        spec = _line_problem()
        v = classify_point(spec, np.array([0.5]), "efficient", (0.0, 1.0), 201)
        assert not v.no_counterexample
        assert v.counterexample[0] < 0.5

    def test_infeasible_point_rejected(self, spec32):
        with pytest.raises(VerifyError):
            classify_point(spec32, [1.0, 0.0], "weak", (-5, 1, -5, 5), 11)

    def test_implication_chain_random_problems(self):
        # efficient => weak, quasi => weak-quasi on identical rasters
        rng = np.random.default_rng(6)
        for _ in range(200):
            spec, xbar = _random_biobjective(rng)
            region = (-1, 1, -1, 1)
            strong = classify_point(spec, xbar, "efficient", region, 21)
            weak = classify_point(spec, xbar, "weak", region, 21)
            if strong.no_counterexample:
                assert weak.no_counterexample
            strong_q = classify_point(spec, xbar, "quasi", region, 21)
            weak_q = classify_point(spec, xbar, "weak-quasi", region, 21)
            if strong_q.no_counterexample:
                assert weak_q.no_counterexample


class TestDualFeasible:
    def test_strong_duality_triples(self, spec32, spec35, origin):
        for spec in (spec32, spec35):
            rep = strong_duality_from(spec, origin)
            assert rep.feasibility.feasible

    def test_stationary_unconstrained(self):
        spec = _parabola_problem()
        triple = DualTriple(np.zeros(1), np.array([1.0]), np.zeros(0))
        rep = dual_feasible(spec, triple)
        assert rep.feasible

    def test_strong_duality_classical_embedding(self):
        # unconstrained smooth problem at its stationary point, theta = 0:
        # the constructed triple is (xbar, e_1, ())
        spec = _parabola_problem()
        rep = strong_duality_from(spec, np.zeros(1))
        assert rep.feasibility.feasible
        assert np.allclose(rep.triple.ystar, [1.0])
        assert rep.triple.mu.size == 0

    def test_no_cancellation_infeasible(self, spec35):
        # scalarized gradient (4.1, 0.41) against ball radius 0.15
        triple = DualTriple(np.array([-0.7, -1.3]),
                            np.array([-0.9, 0.0, 0.1]), np.zeros(2))
        rep = dual_feasible(spec35, triple)
        assert not rep.feasible

    def test_sign_checks(self, spec35, origin):
        bad_y = DualTriple(origin, np.array([0.5, 0.0, 0.5]), np.zeros(2))
        assert not dual_feasible(spec35, bad_y).feasible
        bad_mu = DualTriple(origin, np.array([-0.5, 0.0, 0.5]),
                            np.array([-1.0, 0.0]))
        assert not dual_feasible(spec35, bad_mu).feasible


class TestWeakDuality:
    def test_no_violation_3_5_kind_I(self, spec35, origin):
        rep = strong_duality_from(spec35, origin)
        samples = generate_feasible_samples(spec35, (-3, 3, -4, 1), 200)
        out = weak_duality_check(spec35, samples, [rep.triple], "I")
        assert out.violation is None and out.pairs_checked == 200

    def test_no_violation_2_3_kind_II(self, spec23, origin):
        rep = strong_duality_from(spec23, origin)
        samples = generate_feasible_samples(spec23, (-3, 3, -4, 1), 200)
        out = weak_duality_check(spec23, samples, [rep.triple], "II")
        assert out.violation is None

    def test_reflexive_theta_zero(self):
        spec = _parabola_problem()
        triple = DualTriple(np.zeros(1), np.array([1.0]), np.zeros(0))
        out = weak_duality_check(spec, np.array([[0.0]]), [triple], "I")
        assert out.violation is None  # f(x) not< f(x) by irreflexivity

    def test_infeasible_sample_rejected(self, spec35, origin):
        rep = strong_duality_from(spec35, origin)
        with pytest.raises(VerifyError):
            weak_duality_check(spec35, np.array([[2.0, 2.0]]), [rep.triple],
                               "I")


class TestConverseDuality:
    def test_kind_I_3_5(self, spec35, origin):
        rep = strong_duality_from(spec35, origin)
        out = converse_duality_check(spec35, rep.triple, "I",
                                     (-3, 3, -4, 1), 101)
        assert out.no_counterexample
        assert out.kind == "weak-quasi"

    def test_kind_II_2_3(self, spec23, origin):
        rep = strong_duality_from(spec23, origin)
        out = converse_duality_check(spec23, rep.triple, "II",
                                     (-3, 3, -4, 1), 101)
        assert out.no_counterexample and out.kind == "quasi"

    def test_infeasible_z_rejected(self, spec35):
        triple = DualTriple(np.array([2.0, 2.0]),
                            np.array([-0.5, 0.0, 0.5]), np.zeros(2))
        with pytest.raises(VerifyError):
            converse_duality_check(spec35, triple, "I", (-3, 3, -4, 1), 21)


def _line_problem():
    return ProblemSpec(
        dim=1, objective_names=("f1",),
        objectives=(parse_expr("x1", 1),), constraints=(),
        cone=ConeSpec(pattern=(1,)), omega=OmegaSpec.box([0.0], [1.0]),
        theta=np.zeros(1))


def _parabola_problem():
    return ProblemSpec(
        dim=1, objective_names=("f1",),
        objectives=(parse_expr("x1^2", 1),), constraints=(),
        cone=ConeSpec(pattern=(1,)), omega=OmegaSpec.whole(1),
        theta=np.zeros(1))


def _random_biobjective(rng):
    c = [f"{rng.uniform(-1, 1):.3f}" for _ in range(4)]
    f1 = f"{c[0]}*x1 + {c[1]}*x2 + abs(x1)"
    f2 = f"{c[2]}*x1 + {c[3]}*x2 + abs(x2)"
    theta = np.abs(rng.uniform(0, 0.5, size=2))
    spec = ProblemSpec(
        dim=2, objective_names=("f1", "f2"),
        objectives=(parse_expr(f1, 2), parse_expr(f2, 2)), constraints=(),
        cone=ConeSpec(pattern=(1, 1)), omega=OmegaSpec.box([-1, -1], [1, 1]),
        theta=theta)
    xbar = rng.uniform(-0.5, 0.5, size=2)
    return spec, xbar
