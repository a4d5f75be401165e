import itertools
from types import SimpleNamespace

import numpy as np
import pytest

import sweep_oracle
from helpers import ball_polytope
from robustkkt import certify
from robustkkt.certify import (
    CertifyError,
    KKTCertificate,
    check_cq,
    check_kkt,
    fuzzy_kkt_demo,
    pseudoconvex_test,
    search_kkt,
    witnessed_failure_check,
    ystar_grid,
    ystar_grid_size,
)
from robustkkt.cli import load_certificate, resolve_problem_path
from robustkkt.funcdsl import parse_expr
from robustkkt.lp import LPBuilder
from robustkkt.robustfeas import ProblemSpec, UncertainConstraint
from robustkkt.setcalc import DUAL_NORM, ConeSpec, OmegaSpec, norm_value


@pytest.fixture(scope="module")
def cert32(spec32):
    path = resolve_problem_path("example_3_2").with_suffix(".cert.json")
    return load_certificate(path, spec32)


@pytest.fixture(scope="module")
def cert35(spec35):
    path = resolve_problem_path("example_3_5").with_suffix(".cert.json")
    return load_certificate(path, spec35)


class TestCQ:
    def test_holds_at_3_2(self, spec32, origin):
        rep = check_cq(spec32, origin)
        assert rep.holds and rep.index_set == (1,)

    def test_zero_constraint_fails(self):
        spec = _toy(constraints=[("g1", "x1 - x1", None)])
        rep = check_cq(spec, np.zeros(1))
        assert not rep.holds

    def test_per_index_3_5(self, spec35, origin):
        rep = check_cq(spec35, origin)
        assert rep.holds
        assert [e["i"] for e in rep.per_index] == [1, 2]
        assert all(e["zero_excluded"] for e in rep.per_index)

    def test_infeasible_point_rejected(self, spec32):
        with pytest.raises(CertifyError):
            check_cq(spec32, [1.0, 0.0])


class TestCheckKKT:
    def test_reference_certificate_fixture_mode(self, spec32_fixtures,
                                                cert32, origin):
        rep = check_kkt(spec32_fixtures, origin, cert32, tol=1e-9,
                        mode="hull")
        assert rep.valid and rep.residual <= 1e-9
        assert any(v == "fixture" for v in rep.provenance.values())

    def test_reference_certificate_engine_mode_rejects_f3(self, spec32,
                                                          cert32, origin):
        rep = check_kkt(spec32, origin, cert32, mode="hull")
        assert not rep.valid  # (0, -1) escapes the engine's subdifferential
        bad = [c for c in rep.checks if c["name"] == "u_in_subdiff_f3"]
        assert bad and not bad[0]["ok"]

    def test_corrected_certificate_3_5_engine_mode(self, spec35, cert35,
                                                   origin):
        rep = check_kkt(spec35, origin, cert35, tol=1e-9, mode="hull")
        assert rep.valid and rep.residual <= 1e-9

    def test_gradient_nonzero_invalid(self):
        spec = _toy()
        cert = KKTCertificate(
            ystar=np.array([1.0]), mu=np.zeros(0), u=[np.array([1.0])],
            v=[], vbar=[], bstar=np.zeros(1), astar=np.zeros(1))
        rep = check_kkt(spec, np.array([0.3]), cert)
        assert not rep.valid and rep.residual > 0.5

    def test_complementarity_gate(self, spec32_fixtures, cert32, origin):
        broken = KKTCertificate(
            cert32.ystar, np.array([0.25, 0.25]), cert32.u, cert32.v,
            cert32.vbar, cert32.bstar, cert32.astar)
        rep = check_kkt(spec32_fixtures, origin, broken, mode="hull")
        names = {c["name"]: c["ok"] for c in rep.checks}
        assert not names["complementarity_g2"]  # mu2 * phi2 = -0.25


class TestSearchKKT:
    def test_finds_certificate_3_2(self, spec32, origin):
        rep = search_kkt(spec32, origin)
        c = rep.certificate
        assert c is not None
        assert np.max(np.abs(c.ystar)) > 0
        assert abs(np.sum(np.abs(c.ystar)) + np.sum(np.abs(c.mu)) - 1) <= 1e-12
        assert rep.recheck.valid and rep.recheck.residual <= 1e-9

    def test_finds_certificate_3_5(self, spec35, origin):
        rep = search_kkt(spec35, origin)
        assert rep.certificate is not None and rep.recheck.valid
        assert abs(np.sum(np.abs(rep.certificate.ystar))
                   + np.sum(np.abs(rep.certificate.mu)) - 1) <= 1e-12

    def test_none_found_for_plain_descent(self):
        spec = _toy()  # minimize x over R, no constraints, theta = 0
        rep = search_kkt(spec, np.array([0.7]))
        assert rep.certificate is None

    def test_cq_blocks_multiplier_only_certificates(self, spec32, spec35,
                                                    origin):
        for spec in (spec32, spec35):
            assert check_cq(spec, origin).holds

    def test_infeasible_point_rejected(self, spec32):
        with pytest.raises(CertifyError):
            search_kkt(spec32, [1.0, 0.0])


class TestFuzzy:
    def test_example_3_2_witness(self, spec32, origin):
        y = np.array([2 ** 0.5 / 4, 0.0, 2 ** 0.5 / 4])
        rep = fuzzy_kkt_demo(spec32, origin, y, eta=0.1)
        w = rep.witness
        assert w is not None
        assert np.linalg.norm(w.x_eta - origin) <= 0.1
        assert w.lam[1] != 0.0
        assert abs(w.normalization - 1.0) <= 1e-8
        assert w.inclusion_residual <= 1e-6
        assert abs(w.comp_residual_obj) <= 1e-6
        assert abs(w.comp_residual_con) <= 1e-6

    def test_convex_stationary_point_reduces_to_exact(self):
        spec = _toy(objective="x1^2")
        rep = fuzzy_kkt_demo(spec, np.zeros(1), np.array([1.0]), eta=0.05)
        assert rep.witness is not None
        assert np.allclose(rep.witness.x_eta, 0.0, atol=1e-12)
        assert rep.witness.inclusion_residual <= 1e-9

    def test_degenerate_grid_diagnostic(self, spec32, origin):
        rep = fuzzy_kkt_demo(spec32, origin, np.array([0.5, 0, 0.5]),
                             eta=1e-6, radius=1.0, grid_n=41)
        assert rep.witness is None and "resolution" in rep.diagnostic


class TestPseudoConvex:
    def test_type_I_verified_2_2(self, spec22, origin):
        rep = pseudoconvex_test(spec22, origin, "I", region=(-2, 2, -2, 2),
                                grid=11, y_resolution=12)
        assert rep.verdicts.size == 121
        assert "INCONCLUSIVE" not in rep.verdicts.tolist()

    def test_type_II_failure_witness_2_2(self, spec22, origin):
        w = {"x": [0.0, 1.0], "ystar": [0.0, 1.0, 0.0],
             "u": [[0.0, -0.4], [0.0, 0.0], [0.0, 0.5]]}
        rep = witnessed_failure_check(spec22, origin, "II", w, "limiting")
        assert rep.verdicts.tolist() == ["WITNESSED-FAILURE"]
        assert abs(rep.lp_optimum) <= 1e-12

    def test_type_II_verified_2_3(self, spec23, origin):
        rep = pseudoconvex_test(spec23, origin, "II", region=(-2, 2, -2, 2),
                                grid=11, y_resolution=12)
        assert rep.verdicts.size == 121
        assert "INCONCLUSIVE" not in rep.verdicts.tolist()

    def test_monotonicity_II_implies_I(self, spec23, origin):
        repII = pseudoconvex_test(spec23, origin, "II",
                                  region=(-2, 2, -2, 2), grid=9,
                                  y_resolution=10)
        repI = pseudoconvex_test(spec23, origin, "I", region=(-2, 2, -2, 2),
                                 grid=9, y_resolution=10)
        assert repI.verdicts.size == repII.verdicts.size == 81
        for vI, vII in zip(repI.verdicts, repII.verdicts):
            assert vI != "INCONCLUSIVE" or vII == "INCONCLUSIVE"

    def test_witness_membership_validated(self, spec22, origin):
        w = {"x": [0.0, 1.0], "ystar": [0.0, 1.0, 0.0],
             "u": [[0.0, -0.4], [9.0, 0.0], [0.0, 0.5]]}
        with pytest.raises(CertifyError):
            witnessed_failure_check(spec22, origin, "II", w, "limiting")

    def test_ystar_grid_interior(self, spec22):
        ys = ystar_grid(spec22, 8)
        assert np.allclose(np.sum(np.abs(ys), axis=1), 1.0)
        # midpoint grid keeps degenerate rays like (0, 1, 0) off the grid
        assert np.min(np.max(np.abs(ys), axis=1)) < 1.0
        s = np.asarray(spec22.cone.pattern, dtype=float)
        assert np.all(ys * s >= 0)

    @pytest.mark.parametrize("pattern", [(1,), (-1,), (-1, 1), (-1, 1, 1),
                                         (1, -1, 1, -1)])
    def test_ystar_grid_is_the_stick_breaking_loop(self, pattern):
        """The array grid, bit for bit, against the loop it replaced: one
        stick-breaking weight vector per tick tuple, on the signed unit
        vectors, l1-normalized."""
        m = len(pattern)
        spec = SimpleNamespace(cone=ConeSpec(pattern=pattern),
                               n_objectives=m)
        gens = np.eye(m) * np.asarray(pattern, dtype=float)[:, None]
        for res in (1, 2, 5, 12):
            ticks = (np.arange(res) + 0.5) / res
            want = []
            for combo in itertools.product(ticks, repeat=m - 1):
                w, remaining = np.zeros(m), 1.0
                for k, t in enumerate(combo):
                    w[k] = remaining * t
                    remaining *= (1.0 - t)
                w[m - 1] = remaining
                y = w @ gens
                want.append(y / float(np.sum(np.abs(y))))
            got = ystar_grid(spec, res)
            assert got.shape == (len(want), m) == (ystar_grid_size(spec, res),
                                                   m)
            assert np.array_equal(got.view(np.int64),
                                  np.array(want).view(np.int64))


# Ground sets a.x <= b, each with a point on one face and a corner.
_BOX = (np.array([[-1.0, 0.0], [0.0, -1.0], [1.0, 0.0], [0.0, 1.0]]),
        np.array([1.0, 1.0, 1.0, 2.0]))
_HALFSPACES = (np.array([[1.0, 2.0], [-1.0, 0.0], [0.5, -1.0]]),
               np.array([2.0, 0.0, 1.0]))
_GROUND = {
    "box-face": (OmegaSpec.box([-1, -1], [1, 2]), _BOX, (1.0, 0.0)),
    "box-corner": (OmegaSpec.box([-1, -1], [1, 2]), _BOX, (-1.0, 2.0)),
    "halfspaces-face": (OmegaSpec.halfspaces(*_HALFSPACES), _HALFSPACES,
                        (1.0, 0.5)),
    "halfspaces-corner": (OmegaSpec.halfspaces(*_HALFSPACES), _HALFSPACES,
                          (0.0, 1.0)),
}


def _highs_witness_optimum(spec, xbar, x, ystar, u, cuts):
    """min <y* u, w> + ||x - xbar|| <y*, theta> over w = ||x - xbar|| B lam
    (B the primal ball's vertices, lam >= 0, sum lam <= 1) with
    <a, w> <= 0 for the rows a of cuts, by HiGHS with w free."""
    from scipy.optimize import linprog

    nrm = norm_value(spec.norm, x - xbar)
    B = ball_polytope(DUAL_NORM[spec.norm], 2, spec.ball_facets).vertices
    m = B.shape[0]
    A_ub = np.vstack([np.r_[0.0, 0.0, np.ones(m)],
                      np.hstack([cuts, np.zeros((len(cuts), m))])])
    res = linprog(np.r_[ystar * u, np.zeros(m)], A_ub=A_ub,
                  b_ub=np.r_[1.0, np.zeros(len(cuts))],
                  A_eq=np.hstack([np.eye(2), -nrm * B.T]), b_eq=np.zeros(2),
                  bounds=[(None, None)] * 2 + [(0, None)] * m,
                  method="highs")
    assert res.status == 0
    return res.fun + nrm * ystar * float(spec.theta[0])


def _exact_witness_optimum(spec, xbar, x, ystar, u, cuts):
    """The same optimum as the exact LP the plane's witness check solved
    before it read the sweep's margin: over the polygon of
    ball_polytope(DUAL_NORM[norm], 2, ball_facets), by LPBuilder.solve."""
    nrm = norm_value(spec.norm, x - xbar)
    pball = ball_polytope(DUAL_NORM[spec.norm], 2, spec.ball_facets)
    lp = LPBuilder()
    w_ids = lp.add_vars(2, free=True)
    lam = lp.add_vars(pball.nverts)
    for a in range(2):
        row = {w_ids[a]: 1.0}
        for t, vid in enumerate(lam):
            row[vid] = -nrm * pball.vertices[t, a]
        lp.add_eq(row, 0)
    lp.add_ub({vid: 1.0 for vid in lam}, 1)
    for cut in cuts:
        lp.add_ub({w_ids[a]: cut[a] for a in range(2) if cut[a] != 0.0}, 0)
    lp.set_objective({w_ids[a]: ystar * u[a] for a in range(2)})
    res = lp.solve()
    assert res.feasible
    return res.objective + nrm * (ystar * float(spec.theta[0]))


class TestWitnessCuts:
    """The planar witness check where the normal cone cuts w: x-bar on a
    face or a corner of a box or of a polygon, random witnesses under
    every norm.  It solves no LP.  In l1 and linf its optimum is the
    polygon LP's (within 1e-12 of the exact one, 1e-9 of HiGHS); in l2 it
    is the exact disk's (within 1e-12 of sweep_oracle.disk_margin's
    bracket), never above the inscribed 64-gon's exact LP but for
    rounding."""

    @pytest.mark.parametrize("norm", ["l1", "l2", "linf"])
    @pytest.mark.parametrize("ground", sorted(_GROUND))
    def test_lp_optimum_matches_highs(self, monkeypatch, ground, norm):
        omega, (A, b), xbar = _GROUND[ground]
        xbar = np.array(xbar)
        # the active outward normals, the normal cone's generators
        cuts = A[np.abs(A @ xbar - b) <= 1e-12]
        assert len(cuts) == (2 if "corner" in ground else 1)
        rng = np.random.default_rng(sorted(_GROUND).index(ground) * 3
                                    + ["l1", "l2", "linf"].index(norm))
        cut_matters = 0
        for _ in range(25):
            # -|x1 - a| - |x2 - b| has the hull [-1, 1]^2 at (a, b), and
            # its premise holds at every x != xbar for theta <= 1
            spec = ProblemSpec(
                dim=2, objective_names=("f1",),
                objectives=(parse_expr(f"-abs(x1 - ({xbar[0]})) "
                                       f"- abs(x2 - ({xbar[1]}))", 2),),
                constraints=(), cone=ConeSpec(pattern=(1,)), omega=omega,
                theta=np.array([rng.uniform(0.0, 1.0)]), norm=norm)
            x = xbar + rng.uniform(-1.0, 1.0, size=2)
            ystar = float(rng.uniform(0.2, 2.0))
            u = rng.uniform(-1.0, 1.0, size=2)
            with monkeypatch.context() as m:
                m.setattr(LPBuilder, "solve", _no_lp)
                rep = certify.witnessed_failure_check(
                    spec, xbar, "II", {"x": x, "ystar": [ystar], "u": [u]},
                    "hull")
            want = _highs_witness_optimum(spec, xbar, x, ystar, u, cuts)
            exact = _exact_witness_optimum(spec, xbar, x, ystar, u, cuts)
            if norm == "l2":
                nrm = norm_value(norm, x - xbar)
                lo, hi = sweep_oracle.disk_margin(
                    (ystar * u)[None], ystar * float(spec.theta[0]), cuts)
                assert -nrm * hi - 1e-12 <= rep.lp_optimum <= -nrm * lo \
                    + 1e-12
                # within 4 ulps: the two sum nrm * ytheta in other orders
                assert rep.lp_optimum <= exact + 4 * np.spacing(
                    max(1.0, abs(exact)))
            else:
                assert rep.lp_optimum == pytest.approx(exact, abs=1e-12)
                assert rep.lp_optimum == pytest.approx(want, abs=1e-9)
            uncut = _highs_witness_optimum(spec, xbar, x, ystar, u,
                                           np.zeros((0, 2)))
            cut_matters += want > uncut + 1e-6
        assert cut_matters >= 5


def _no_lp(self):
    raise AssertionError("an LP was solved")


def _toy(objective="x1", constraints=(), theta=(0.0,)):
    cons = []
    for name, text, dom in constraints:
        expr = parse_expr(text, 1)
        if dom is None:
            cons.append(UncertainConstraint(name, expr))
        else:
            cons.append(UncertainConstraint(name, expr, dom[0], dom[1]))
    return ProblemSpec(
        dim=1,
        objective_names=("f1",),
        objectives=(parse_expr(objective, 1),),
        constraints=tuple(cons),
        cone=ConeSpec(pattern=(1,)),
        omega=OmegaSpec.whole(1),
        theta=np.asarray(theta, dtype=float),
    )
