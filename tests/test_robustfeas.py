import numpy as np
import pytest

from robustkkt import robustfeas
from robustkkt.funcdsl import parse_expr
from robustkkt.robustfeas import (
    ProblemError,
    ProblemSpec,
    Psi,
    UncertainConstraint,
    active_uncertainty,
    compute_active_sets,
    envelope_grid,
    feasibility_mask,
    is_feasible,
    phi,
    phi_i,
    raster,
)
from robustkkt.setcalc import ConeSpec, OmegaSpec


class TestEnvelopes:
    def test_phi_values_3_2(self, spec32, origin):
        assert phi_i(spec32, 1, origin) == pytest.approx(0.0, abs=1e-8)
        assert phi_i(spec32, 2, origin) == pytest.approx(-1.0, abs=1e-8)

    def test_phi_values_3_5(self, spec35, origin):
        assert phi_i(spec35, 1, origin) == pytest.approx(0.0, abs=1e-8)
        assert phi_i(spec35, 2, origin) == pytest.approx(0.0, abs=1e-8)

    def test_certain_constraint_passthrough(self):
        spec = _toy_spec([("g1", "x1 + x2 - 1", None)], dim=2)
        assert phi_i(spec, 1, [0.25, 0.25]) == pytest.approx(-0.5)

    def test_closed_form_quadratic_envelopes(self, spec35):
        # g's are polynomial of degree <= 2 in v; compare with the analytic
        # vertex/endpoint maximum at random x
        rng = np.random.default_rng(8)
        con = spec35.constraint("g1")
        for _ in range(50):
            x = rng.uniform(-2, 2, size=2)
            # g1 = s^2 * A(x) + s/4 with s = |v| = -v on [-1, -1/4]
            A = np.abs(x[0]) / 4 + x[1] / 2 - 1
            cands = []
            for s in (0.25, 1.0):
                cands.append(A * s * s + s / 4)
            s_crit = -0.25 / (2 * A) if A != 0 else None
            if s_crit is not None and 0.25 <= s_crit <= 1.0:
                cands.append(A * s_crit ** 2 + s_crit / 4)
            assert phi_i(spec35, 1, x) == pytest.approx(max(cands), abs=1e-8)

    def test_phi_is_max_of_envelopes(self, spec32):
        rng = np.random.default_rng(10)
        for _ in range(25):
            x = rng.uniform(-3, 1, size=2)
            phis = [phi_i(spec32, i, x) for i in (1, 2)]
            assert phi(spec32, x) == max(phis)


class TestActiveScenarios:
    def test_points_3_2(self, spec32, origin):
        assert active_uncertainty(spec32, 1, origin) == pytest.approx([0.0],
                                                                      abs=1e-6)
        assert active_uncertainty(spec32, 2, origin) == pytest.approx([1.0],
                                                                      abs=1e-6)

    def test_points_3_5(self, spec35, origin):
        for i in (1, 2):
            assert active_uncertainty(spec35, i, origin) == pytest.approx(
                [-0.25], abs=1e-6)

    def test_constant_in_v_reports_endpoints(self):
        spec = _toy_spec([("g1", "x1 + v - v", (-2.0, 3.0))])
        reps = active_uncertainty(spec, 1, [0.5])
        assert reps == pytest.approx([-2.0, 3.0])

    def test_values_attain_envelope(self, spec32, spec35):
        rng = np.random.default_rng(13)
        for spec in (spec32, spec35):
            for _ in range(10):
                x = rng.uniform(-1.5, 0.5, size=2)
                for i in (1, 2):
                    env = phi_i(spec, i, x)
                    con = spec.constraints[i - 1]
                    from robustkkt.funcdsl import eval_expr
                    for vrep in active_uncertainty(spec, i, x, tol=1e-6):
                        val = eval_expr(con.expr, x, vrep)
                        assert abs(val - env) <= 1e-6


class TestFeasibility:
    def test_examples(self, spec32, spec35):
        assert is_feasible(spec32, [-1.0, 3.0])
        assert not is_feasible(spec32, [1.0, 0.0])
        assert is_feasible(spec35, [0.0, 0.0])
        assert phi(spec35, [0.0, 0.0]) == pytest.approx(0.0, abs=1e-8)

    def test_direct_scenario_sweep_agreement(self, spec32, spec35):
        # envelope-based feasibility vs a direct for-all-v sweep on an
        # independent scenario grid, 10^4 random points per example problem
        from robustkkt.funcdsl import eval_on_grid
        rng = np.random.default_rng(14)
        for spec, box in ((spec32, (-4, 1, -5, 5)), (spec35, (-3, 3, -4, 1))):
            X = np.vstack([rng.uniform(box[0], box[1], size=10_000),
                           rng.uniform(box[2], box[3], size=10_000)])
            mask = feasibility_mask(spec, X)
            direct = np.ones(X.shape[1], dtype=bool)
            for con in spec.constraints:
                worst = np.full(X.shape[1], -np.inf)
                for v in np.linspace(con.lo, con.hi, 313):
                    worst = np.fmax(worst, eval_on_grid(con.expr, X, float(v)))
                direct &= worst <= spec.feas_tol
            disagree = np.nonzero(mask != direct)[0]
            for t in disagree:  # only grid slack right at the boundary
                assert abs(phi(spec, X[:, t])) <= 1e-3
            assert disagree.size <= 20

    def test_index_set(self, spec32, spec35, origin):
        assert compute_active_sets(spec32, origin).index_set == (1,)
        assert compute_active_sets(spec35, origin).index_set == (1, 2)


class TestRaster:
    def test_closed_form_3_2(self, spec32):
        r = raster(spec32, (-5, 1, -5, 5), 161)
        X1, X2 = np.meshgrid(r.x1, r.x2, indexing="ij")
        closed = (((X1 >= -0.5) & (X1 <= 0) & (np.abs(X2) <= -3 * X1 + 2))
                  | ((X1 <= -0.5) & (np.abs(X2) <= -X1 + 3)))
        assert np.mean(r.feasible == closed) >= 0.999

    def test_csv_format(self, spec32, tmp_path):
        r = raster(spec32, (-1, 0, -1, 1), (3, 5))
        text = r.to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "x1,x2,feasible"
        assert len(lines) == 1 + 3 * 5
        first = lines[1].split(",")
        assert float(first[0]) == -1.0 and first[2] in ("0", "1")
        # row-major: x1 varies slowest
        assert float(lines[1].split(",")[0]) == float(lines[5].split(",")[0])

    def test_unconstrained_all_true(self):
        spec = _toy_spec([], dim=2)
        r = raster(spec, (-1, 1, -1, 1), 11)
        assert np.all(r.feasible)

    def test_dimension_guard(self):
        spec = _toy_spec([], dim=3)
        with pytest.raises(ProblemError):
            raster(spec, (-1, 1, -1, 1), 5)

    def test_two_threads_bit_equal(self, spec32, monkeypatch):
        # the README raster grid of example 3.2
        G1, G2 = np.meshgrid(np.linspace(-5, 1, 401), np.linspace(-5, 5, 401),
                             indexing="ij")
        X = np.vstack([G1.ravel(), G2.ravel()])
        monkeypatch.delenv("ROBUSTKKT_THREADS", raising=False)
        one = [envelope_grid(spec32, con, X) for con in spec32.constraints]
        pools = []

        class CountingPool(robustfeas.ThreadPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(robustfeas, "ThreadPoolExecutor", CountingPool)
        monkeypatch.setenv("ROBUSTKKT_THREADS", "2")
        two = [envelope_grid(spec32, con, X) for con in spec32.constraints]
        assert pools == [2, 2]
        for a, b in zip(one, two):
            assert np.array_equal(a.view(np.int64), b.view(np.int64))


class TestPsi:
    def test_value_at_xbar(self, spec32, origin):
        y = np.array([0.2, 0.3, 0.1])
        m = Psi(spec32, y, origin)
        # phi(xbar) = 0, <y, theta> = 0.3 >= 0
        assert m(origin) == pytest.approx(float(np.dot(y, spec32.theta)))

    def test_zero_weights(self, spec32, origin):
        m = Psi(spec32, np.zeros(3), origin)
        x = np.array([-1.0, 0.5])
        assert m(x) == pytest.approx(max(0.0, phi(spec32, x)), abs=1e-9)

    def test_requires_dual_cone_weight(self, spec35, origin):
        with pytest.raises(ProblemError):
            Psi(spec35, [1.0, 0.0, 0.0], origin)  # y1 > 0 not in K+

    def test_grid_matches_scalar(self, spec32, origin):
        y = np.array([0.25, 0.1, 0.25])
        m = Psi(spec32, y, origin)
        rng = np.random.default_rng(15)
        X = rng.uniform(-2, 1, size=(2, 40))
        grid = m.on_grid(X)
        for t in range(40):
            assert grid[t] == pytest.approx(m(X[:, t]), abs=1e-9)


class TestSpecValidation:
    def test_theta_outside_cone_rejected(self):
        with pytest.raises(ProblemError):
            _toy_spec([], theta=(-1.0,))

    def test_objective_with_v_rejected(self):
        with pytest.raises(ProblemError):
            ProblemSpec(
                dim=1, objective_names=("f1",),
                objectives=(parse_expr("v*x1", 1),),
                constraints=(), cone=ConeSpec(pattern=(1,)),
                omega=OmegaSpec.whole(1), theta=np.zeros(1))

    def test_constraint_without_domain_rejected(self):
        with pytest.raises(ProblemError):
            UncertainConstraint("g1", parse_expr("v*x1", 1))


def _toy_spec(constraints, dim=1, theta=None):
    cons = []
    for name, text, dom in constraints:
        expr = parse_expr(text, dim)
        if dom is None:
            cons.append(UncertainConstraint(name, expr))
        else:
            cons.append(UncertainConstraint(name, expr, dom[0], dom[1]))
    return ProblemSpec(
        dim=dim,
        objective_names=("f1",),
        objectives=(parse_expr("x1", dim),),
        constraints=tuple(cons),
        cone=ConeSpec(pattern=(1,)),
        omega=OmegaSpec.whole(dim),
        theta=np.zeros(1) if theta is None else np.asarray(theta),
    )
