import numpy as np
import pytest

from robustkkt import robustfeas
from robustkkt.funcdsl import parse_expr
from robustkkt.robustfeas import (
    ProblemError,
    ProblemSpec,
    Psi,
    UncertainConstraint,
    compute_active_sets,
    feasibility_mask,
    feasible_active_sets,
    raster,
    scenario_envelope,
)
from robustkkt.setcalc import ConeSpec, OmegaSpec

from test_golden import COMMANDS, report


class TestEnvelopes:
    def test_phi_values_3_2(self, spec32, origin):
        assert compute_active_sets(spec32, origin).phis == pytest.approx(
            (0.0, -1.0), abs=1e-8)

    def test_phi_values_3_5(self, spec35, origin):
        assert compute_active_sets(spec35, origin).phis == pytest.approx(
            (0.0, 0.0), abs=1e-8)

    def test_certain_constraint_passthrough(self):
        spec = _toy_spec([("g1", "x1 + x2 - 1", None)], dim=2)
        assert compute_active_sets(spec, [0.25, 0.25]).phis == \
            pytest.approx((-0.5,))

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
            assert scenario_envelope(con, x, spec35.vgrid)[0] == \
                pytest.approx(max(cands), abs=1e-8)

    def test_phi_is_max_of_envelopes(self, spec32):
        rng = np.random.default_rng(10)
        for _ in range(25):
            x = rng.uniform(-3, 1, size=2)
            phis = [scenario_envelope(con, x, spec32.vgrid)[0]
                    for con in spec32.constraints]
            acts = compute_active_sets(spec32, x)
            assert acts.phis == tuple(phis)
            assert acts.phi == max(phis)


class TestActiveScenarios:
    def test_points_3_2(self, spec32, origin):
        v1, v2 = compute_active_sets(spec32, origin).scenarios
        assert v1 == pytest.approx((0.0,), abs=1e-6)
        assert v2 == pytest.approx((1.0,), abs=1e-6)

    def test_points_3_5(self, spec35, origin):
        for scens in compute_active_sets(spec35, origin).scenarios:
            assert scens == pytest.approx((-0.25,), abs=1e-6)

    def test_constant_in_v_reports_endpoints(self):
        spec = _toy_spec([("g1", "x1 + v - v", (-2.0, 3.0))])
        [reps] = compute_active_sets(spec, [0.5]).scenarios
        assert reps == pytest.approx((-2.0, 3.0))

    def test_values_attain_envelope(self, spec32, spec35):
        rng = np.random.default_rng(13)
        for spec in (spec32, spec35):
            for _ in range(10):
                x = rng.uniform(-1.5, 0.5, size=2)
                for con in spec.constraints:
                    env, actives = scenario_envelope(con, x, spec.vgrid)
                    from robustkkt.funcdsl import eval_expr
                    for vrep in actives:
                        val = eval_expr(con.expr, x, vrep)
                        assert abs(val - env) <= 1e-6


class TestFeasibility:
    def test_examples(self, spec32, spec35):
        assert feasible_active_sets(spec32, [-1.0, 3.0]) is not None
        assert feasible_active_sets(spec32, [1.0, 0.0]) is None
        acts = feasible_active_sets(spec35, [0.0, 0.0])
        assert acts.phi == pytest.approx(0.0, abs=1e-8)

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
                assert abs(compute_active_sets(spec, X[:, t]).phi) <= 1e-3
            assert disagree.size <= 20

    def test_index_set(self, spec32, spec35, origin):
        assert compute_active_sets(spec32, origin).index_set == (1,)
        assert compute_active_sets(spec35, origin).index_set == (1, 2)


# Scenario scans (robustfeas._scan calls) per README command: one per
# uncertain constraint and point of each verdict function.  kkt search
# adds its recheck by check_kkt, duality strong its dual_feasible,
# duality weak the dual_feasible of its triple and converse duality the
# dual_feasible and classify_point at z.  Grid commands scan none.
SCANS = {"feasible": 2, "cq": 2, "kkt_check": 2, "fuzzy": 2,
         "pseudoconvex_I": 2, "pseudoconvex_II": 2, "efficiency": 2,
         "kkt_search": 4, "duality_strong": 6, "duality_weak": 8,
         "duality_converse": 6, "raster": 0, "subdiff": 0}


class TestScanCount:
    def test_every_command_counted(self):
        assert sorted(SCANS) == sorted(COMMANDS)

    @pytest.mark.parametrize("name", sorted(SCANS))
    def test_one_scan_per_constraint_and_point(self, name, tmp_path,
                                               monkeypatch):
        monkeypatch.chdir(tmp_path)
        calls = []
        scan = robustfeas._scan

        def counting(*args):
            calls.append(args[1:])
            return scan(*args)

        monkeypatch.setattr(robustfeas, "_scan", counting)
        report(COMMANDS[name])
        assert len(calls) == SCANS[name]


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


class TestPsi:
    def test_value_at_xbar(self, spec32, origin):
        y = np.array([0.2, 0.3, 0.1])
        m = Psi(spec32, y, origin)
        # phi(xbar) = 0, <y, theta> = 0.3 >= 0
        [val] = m.on_grid(origin[:, None])
        assert val == pytest.approx(float(np.dot(y, spec32.theta)))

    def test_zero_weights(self, spec32, origin):
        m = Psi(spec32, np.zeros(3), origin)
        x = np.array([-1.0, 0.5])
        [val] = m.on_grid(x[:, None])
        assert val == pytest.approx(
            max(0.0, compute_active_sets(spec32, x).phi), abs=1e-9)

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
            assert grid[t] == pytest.approx(_psi(spec32, y, origin, X[:, t]),
                                            abs=1e-9)


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


def _psi(spec, ystar, xbar, x) -> float:
    """psi at one point, as fuzzy_kkt_demo computes it at x_eta."""
    f_branch = float(np.dot(ystar, spec.fvec(x) - spec.fvec(xbar)
                            + spec.theta))
    return max(f_branch, compute_active_sets(spec, x).phi)


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
