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
from robustkkt.verify import VerifyError, classify_point

from grid_oracle import psi_on_grid
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

    def test_each_bracket_refined_once(self, monkeypatch, spec22, spec32,
                                       spec35):
        """One scan refines a bracket of grid points at most once: the
        bracket around the grid's best value is also the bracket of the
        cluster that value forms alone, in most scans."""
        scans, golden = [], robustfeas.golden_max
        interval = robustfeas.active_scenarios_interval

        def spy_golden(fn, lo, hi):
            scans[-1].append((lo, hi))
            return golden(fn, lo, hi)

        def spy_interval(*args):
            scans.append([])
            return interval(*args)

        monkeypatch.setattr(robustfeas, "golden_max", spy_golden)
        monkeypatch.setattr(robustfeas, "active_scenarios_interval",
                            spy_interval)
        rng = np.random.default_rng(18)
        for spec in (spec22, spec32, spec35):
            for x in rng.uniform(-2.0, 2.0, (40, 2)):
                compute_active_sets(spec, x)
        assert len(scans) >= 200 and all(scans)
        assert [b for b in scans if len(set(b)) != len(b)] == []


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


# The README commands that build feasibility masks.  On the bundled fixtures
# the hull bound of every constraint decides every cell, so the grid scan
# (envelope_grid) evaluates no scenario at any cell and no cell is
# rescanned; a constraint that lost its hull bound would fall back to the
# full scan of its 1,001 scenarios over every feasible cell.
MASK_COMMANDS = ("raster", "efficiency", "duality_weak", "duality_converse")


class TestGridScanCount:
    @pytest.mark.parametrize("name", MASK_COMMANDS)
    def test_masks_need_no_grid_scan(self, name, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        bounds, cells, evaluations = [], [], []
        hull_bound, scan = robustfeas._hull_bound, robustfeas.envelope_grid

        def bounding(spec, con, X):
            out = hull_bound(spec, con, X)
            bounds.append(out is not None)
            return out

        def counting(spec, con, X):
            cells.append(X.shape[1])
            evaluations.append(
                X.shape[1] * len(robustfeas._scenario_grid(con, spec.vgrid)))
            return scan(spec, con, X)

        monkeypatch.setattr(robustfeas, "_hull_bound", bounding)
        monkeypatch.setattr(robustfeas, "envelope_grid", counting)
        report(COMMANDS[name])
        assert bounds and all(bounds)
        assert (sum(cells), sum(evaluations)) == (0, 0)


# The README fuzzy command and one benchmark-style fuzzy per bundled
# problem.  Their merit keys are settled by the hull bound of each
# constraint, computed once over the disc, and envelope_grid rescans no
# cell; the full scan of every cell saw 1,001 scenarios over 5,025 cells.
FUZZY_COMMANDS = [COMMANDS["fuzzy"]] + [
    ["fuzzy", "--problem", problem, "--at", at, "--ystar", ystar,
     "--eta", eta]
    for problem, at, ystar, eta in (
        ("example_3_5", "-0.0904,-2.2161", "-0.3788,0.5616,0.6423", "0.135"),
        ("example_3_2", "-1.8879,0.6136", "0.4548,0.1033,0.8765", "0.171"),
        ("example_2_2", "-0.2511,-3.8601", "-0.2681,0.2184,0.6052", "0.142"),
        ("example_2_3", "1.8986,-2.7235", "-0.8497,0.6895,0.1291", "0.179"))]


class TestMeritScanCount:
    @pytest.mark.parametrize("argv", FUZZY_COMMANDS, ids=[
        "readme", "example_3_5", "example_3_2", "example_2_2", "example_2_3"])
    def test_fuzzy_needs_no_grid_scan(self, argv, monkeypatch):
        bounds, cells = [], []
        hull_bound, scan = robustfeas._hull_bound, robustfeas.envelope_grid

        def bounding(spec, con, X):
            out = hull_bound(spec, con, X)
            bounds.append(out is not None)
            return out

        def counting(spec, con, X):
            cells.append(X.shape[1])
            return scan(spec, con, X)

        monkeypatch.setattr(robustfeas, "_hull_bound", bounding)
        monkeypatch.setattr(robustfeas, "envelope_grid", counting)
        assert report(argv)[0] in (0, 2)
        assert bounds == [True, True]
        assert sum(cells) == 0


class TestRaster:
    def test_closed_form_3_2(self, spec32):
        r = raster(spec32, (-5, 1, -5, 5), 161)
        X1, X2 = np.meshgrid(r.x1, r.x2, indexing="ij")
        closed = (((X1 >= -0.5) & (X1 <= 0) & (np.abs(X2) <= -3 * X1 + 2))
                  | ((X1 <= -0.5) & (np.abs(X2) <= -X1 + 3)))
        assert np.mean(r.feasible == closed) >= 0.999

    def test_too_many_cells_refused_before_any_exist(self, spec32,
                                                     monkeypatch):
        def allocate(*args):
            raise AssertionError("the grid was built")

        monkeypatch.setattr(robustfeas.np, "linspace", allocate)
        with pytest.raises(ProblemError, match="16777216 cells, over the "
                                               "limit 8388608"):
            raster(spec32, (-5, 1, -5, 5), (4096, 4096))
        with pytest.raises(AssertionError, match="was built"):
            raster(spec32, (-5, 1, -5, 5), (2048, 4096))  # at the limit

    def test_sample_count_bounded_off_the_plane(self, spec32):
        line = ProblemSpec(
            dim=1, objective_names=("f1",), objectives=(parse_expr("x1", 1),),
            constraints=(), cone=ConeSpec(pattern=(1,)),
            omega=OmegaSpec.whole(1), theta=np.zeros(1))
        with pytest.raises(VerifyError,
                           match="8388609 samples exceed the limit 8388608"):
            classify_point(line, [0.0], "weak", (-1, 1), 2 ** 23 + 1)
        assert classify_point(line, [0.0], "weak", (-1, 1), 5) \
            .feasible_checked == 5

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
    """psi on grid columns is grid_oracle.psi_on_grid, the full scan that
    Psi.candidate_keys replaced; test_merit_keys.py holds the two
    together."""

    def test_value_at_xbar(self, spec32, origin):
        y = np.array([0.2, 0.3, 0.1])
        m = Psi(spec32, y, origin)
        # phi(xbar) = 0, <y, theta> = 0.3 >= 0
        [val] = psi_on_grid(m, origin[:, None])
        assert val == pytest.approx(float(np.dot(y, spec32.theta)))
        assert m.candidate_keys(origin[:, None])[1] == np.round(val, 12)

    def test_zero_weights(self, spec32, origin):
        m = Psi(spec32, np.zeros(3), origin)
        x = np.array([-1.0, 0.5])
        [val] = psi_on_grid(m, x[:, None])
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
        grid = psi_on_grid(m, X)
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
