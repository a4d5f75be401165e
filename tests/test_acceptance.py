"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred.
"""

import time

import numpy as np

from robustkkt.certify import (
    check_cq,
    check_kkt,
    pseudoconvex_test,
    search_kkt,
    witnessed_failure_check,
)
from robustkkt.cli import load_certificate, resolve_problem_path
from robustkkt.funcdsl import DomainError, UnsupportedStructureError, \
    eval_expr
from robustkkt.robustfeas import compute_active_sets, raster
from robustkkt.setcalc import Polytope, PolytopeSet, hull, minkowski_sum, \
    zero_in_sum
from robustkkt.subdiff import constraint_set, limiting_subdiff
from robustkkt.verify import classify_point, generate_feasible_samples, \
    strong_duality_from, weak_duality_check

from genexpr import (
    one_sided_derivative,
    random_convex_expr,
    random_point,
    random_supported_expr,
)
from helpers import active_kinks, gradient, polytope_equal
from test_setcalc import _grid_oracle_min


def _crit(name: str, ok: bool, detail: str = ""):
    suffix = f"  ({detail})" if detail else ""
    print(f"[{'PASS' if ok else 'FAIL'}] {name}{suffix}")
    assert ok, f"{name}{suffix}"


def _vertices(res):
    assert res.set.ncomponents == 1
    return res.set.components[0]


def test_criterion_1_example_2_2_subdifferentials(spec22, origin):
    t0 = time.monotonic()
    targets = {
        "f1": [[-5.0, -0.4], [5.0, -0.4]],
        "f2": [[-0.5, 0.0], [0.5, 0.0]],
        "f3": [[-4.0, 0.5], [4.0, 0.5]],
    }
    ok = True
    for name, verts in targets.items():
        res = limiting_subdiff(spec22.objective(name), origin, mode="hull")
        ok = ok and polytope_equal(_vertices(res), Polytope(verts), tol=1e-12)
    for v1 in (-1.0, -0.5, -0.25):
        res = limiting_subdiff(spec22.constraint("g1").expr, origin, v1,
                               mode="hull")
        want = Polytope([[-v1 * v1 / 4, v1 * v1 / 2],
                         [v1 * v1 / 4, v1 * v1 / 2]])
        ok = ok and polytope_equal(_vertices(res), want, tol=1e-12)
    for v2 in (-1.0, -0.5, -0.25):
        res = limiting_subdiff(spec22.constraint("g2").expr, origin, v2,
                               mode="hull")
        want = Polytope([[0.0, abs(v2)]])
        ok = ok and polytope_equal(_vertices(res), want, tol=1e-12)
    dt = time.monotonic() - t0
    _crit("criterion 1: example 2.2 subdifferential sets (hull, 1e-12)",
          ok and dt < 1.0, f"{dt:.2f}s")


def test_criterion_2_example_3_2_pipeline(spec32, origin):
    t0 = time.monotonic()
    acts = compute_active_sets(spec32, origin)
    ok = abs(acts.phis[0] - 0.0) <= 1e-8
    ok = ok and abs(acts.phis[1] - (-1.0)) <= 1e-8
    v1, v2 = acts.scenarios
    ok = ok and len(v1) == 1 and abs(v1[0] - 0.0) <= 1e-6
    ok = ok and len(v2) == 1 and abs(v2[0] - 1.0) <= 1e-6
    ok = ok and check_cq(spec32, origin).holds
    srep = search_kkt(spec32, origin)
    ok = ok and srep.found
    c = srep.certificate
    ok = ok and abs(np.sum(np.abs(c.ystar)) + np.sum(np.abs(c.mu)) - 1.0) \
        <= 1e-12
    ok = ok and srep.recheck.valid and srep.recheck.residual <= 1e-9
    cert = load_certificate(
        resolve_problem_path("example_3_2").with_suffix(".cert.json"), spec32)
    rep = check_kkt(spec32, origin, cert, tol=1e-9, mode="hull",
                    use_fixtures=True)
    ok = ok and rep.valid
    dt = time.monotonic() - t0
    _crit("criterion 2: example 3.2 pipeline (phi, V, CQ, search, reference cert)",
          ok and dt < 5.0, f"{dt:.2f}s")


def test_criterion_3_example_3_5_pipeline(spec35, origin):
    t0 = time.monotonic()
    ok = True
    acts = compute_active_sets(spec35, origin)
    for vi in acts.scenarios:
        ok = ok and len(vi) == 1 and abs(vi[0] - (-0.25)) <= 1e-6
    S1, _ = constraint_set(spec35, 1, origin, acts)
    want = Polytope([[-1 / 64, 1 / 32], [1 / 64, 1 / 32]])
    ok = ok and polytope_equal(S1.components[0], want, tol=1e-12)
    cert = load_certificate(
        resolve_problem_path("example_3_5").with_suffix(".cert.json"), spec35)
    rep = check_kkt(spec35, origin, cert, tol=1e-9, mode="hull")
    ok = ok and rep.valid and rep.residual <= 1e-9
    srep = search_kkt(spec35, origin)
    ok = ok and srep.found and srep.recheck.valid
    dt = time.monotonic() - t0
    _crit("criterion 3: example 3.5 pipeline (V, sup-rule set, corrected "
          "cert, search)", ok and dt < 5.0, f"{dt:.2f}s")


def _boundary_dilated(mask):
    b = np.zeros_like(mask)
    for ax in (0, 1):
        for sh in (1, -1):
            rolled = np.roll(mask, sh, axis=ax)
            edge = rolled != mask
            if ax == 0:
                edge[0 if sh == 1 else -1, :] = False
            else:
                edge[:, 0 if sh == 1 else -1] = False
            b |= edge
    out = b.copy()
    for ax in (0, 1):
        for sh in (1, -1):
            out |= np.roll(b, sh, axis=ax)
    return out


def test_criterion_4_figure_rasters(spec32, spec35):
    cases = [
        (spec32, (-5, 1, -5, 5),
         lambda X1, X2: (((X1 >= -0.5) & (X1 <= 0)
                          & (np.abs(X2) <= -3 * X1 + 2))
                         | ((X1 <= -0.5) & (np.abs(X2) <= -X1 + 3))),
         "figure 1"),
        (spec35, (-3, 3, -4, 1),
         lambda X1, X2: (((np.abs(X1) <= 1) & (X2 <= -np.abs(X1) / 2))
                         | ((np.abs(X1) > 1) & (X2 <= -X1 ** 2 / 2))),
         "figure 2"),
    ]
    for spec, region, closed_fn, label in cases:
        t0 = time.monotonic()
        r = raster(spec, region, 401)
        X1, X2 = np.meshgrid(r.x1, r.x2, indexing="ij")
        closed = closed_fn(X1, X2)
        agree = float(np.mean(r.feasible == closed))
        disagree = r.feasible != closed
        near = _boundary_dilated(closed)
        within = bool(np.all(~disagree | near))
        dt = time.monotonic() - t0
        _crit(f"criterion 4: {label} raster 401x401 vs closed form",
              agree >= 0.999 and within and dt < 30.0,
              f"agreement {agree:.6f}, boundary-local {within}, {dt:.1f}s")


def test_criterion_5_efficiency_classification(spec32, spec35, spec23,
                                               origin):
    t0 = time.monotonic()
    a = classify_point(spec32, origin, "weak-quasi", (-5, 1, -5, 5), 401)
    b = classify_point(spec35, origin, "weak-quasi", (-3, 3, -4, 1), 401)
    c = classify_point(spec23, origin, "quasi", (-3, 3, -4, 1), 401)
    dt = time.monotonic() - t0
    ok = a.no_counterexample and b.no_counterexample and c.no_counterexample
    _crit("criterion 5: efficiency classifications at 401^2",
          ok and dt < 60.0, f"{dt:.1f}s")


def test_criterion_6_pseudo_convexity(spec22, spec23, origin):
    repI = pseudoconvex_test(spec22, origin, "I", region=(-2, 2, -2, 2),
                             grid=21, y_resolution=24)
    okI = repI.verdicts.size == 441 and "INCONCLUSIVE" not in \
        repI.verdicts.tolist()
    w = {"x": [0.0, 1.0], "ystar": [0.0, 1.0, 0.0],
         "u": [[0.0, -0.4], [0.0, 0.0], [0.0, 0.5]]}
    repw = witnessed_failure_check(spec22, origin, "II", w, "limiting",
                                   False)
    okW = (repw.verdicts.tolist() == ["WITNESSED-FAILURE"]
           and abs(repw.lp_optimum) <= 1e-12)
    repII = pseudoconvex_test(spec23, origin, "II", region=(-2, 2, -2, 2),
                              grid=21, y_resolution=24)
    okII = repII.verdicts.size == 441 and "INCONCLUSIVE" not in \
        repII.verdicts.tolist()
    _crit("criterion 6: type I verified (2.2), witnessed type II failure "
          "(LP optimum 0 +- 1e-12), type II verified (2.3)",
          okI and okW and okII,
          f"lp_optimum={repw.lp_optimum:.2e}")


def test_criterion_7_duality(spec32, spec35, spec23, origin):
    t0 = time.monotonic()
    ok = True
    for spec, region, kind in ((spec32, (-5, 1, -5, 5), "I"),
                               (spec35, (-3, 3, -4, 1), "I"),
                               (spec23, (-3, 3, -4, 1), "II")):
        srep = strong_duality_from(spec, origin)
        ok = ok and srep.feasibility.feasible
        samples = generate_feasible_samples(spec, region, 1000)
        wrep = weak_duality_check(spec, samples, [srep.triple], kind)
        ok = ok and wrep.no_violation and wrep.pairs_checked == 1000
    dt = time.monotonic() - t0
    _crit("criterion 7: strong duality triples feasible, weak duality over "
          "10^3 samples", ok and dt < 60.0, f"{dt:.1f}s")


class TestCriterion8PropertySuites:
    def test_support_function_oracle(self):
        rng = np.random.default_rng(101)
        instances = 0
        while instances < 200:
            dim = int(rng.integers(1, 4))
            e = random_convex_expr(rng, dim)
            x = random_point(rng, dim)
            V = limiting_subdiff(e, x).set.all_vertices()
            for _ in range(3):
                u = rng.standard_normal(dim)
                u /= np.linalg.norm(u)
                dd = one_sided_derivative(e, x, u)
                sup = float(np.max(V @ u))
                assert abs(dd - sup) <= 1e-5 * max(1.0, abs(sup))
            instances += 1
        _crit("criterion 8a: support-function oracle, 200 convex instances",
              True)

    def test_zero_in_sum_vs_brute_force(self):
        rng = np.random.default_rng(102)
        checked = 0
        while checked < 200:
            shapes = [(3,), (2, 2), (2, 1), (2,), (1, 1, 2)][rng.integers(5)]
            parts = [PolytopeSet([Polytope(rng.uniform(-1, 1, size=(k, 2)))])
                     for k in shapes]
            omin = _grid_oracle_min(parts)
            if 1e-9 < omin <= 8e-3:
                continue
            assert zero_in_sum(parts, np.zeros((0, 2))).sat == (omin <= 1e-9)
            checked += 1
        _crit("criterion 8b: zero_in_sum vs dense-grid oracle, 200 instances",
              True)

    def test_minkowski_hull_algebra(self):
        rng = np.random.default_rng(103)
        for _ in range(200):
            polys = [Polytope(rng.uniform(-1, 1, size=(rng.integers(1, 4), 2)))
                     for _ in range(3)]
            a, b, c = (PolytopeSet([p]) for p in polys)
            assert polytope_equal(hull(minkowski_sum(a, b)),
                                  hull(minkowski_sum(b, a)), tol=1e-12)
            assert polytope_equal(
                hull(minkowski_sum(minkowski_sum(a, b), c)),
                hull(minkowski_sum(a, minkowski_sum(b, c))), tol=1e-12)
        _crit("criterion 8c: Minkowski/hull algebra, 200 instances", True)

    def test_finite_difference_gradients(self):
        rng = np.random.default_rng(104)
        checked = 0
        while checked < 200:
            dim = int(rng.integers(1, 4))
            e = random_supported_expr(rng, dim)
            x = random_point(rng, dim)
            if active_kinks(e, x, tol=1e-4):
                continue
            try:
                g = gradient(e, x)
            except Exception:
                continue
            h = 1e-6
            fine = True
            for k in range(dim):
                xp, xm = x.copy(), x.copy()
                xp[k] += h
                xm[k] -= h
                try:
                    fd = (eval_expr(e, xp) - eval_expr(e, xm)) / (2 * h)
                except DomainError:
                    fine = False
                    break
                assert abs(fd - g[k]) <= 1e-5 * max(1.0, abs(g[k]))
            if fine:
                checked += 1
        _crit("criterion 8d: finite-difference gradient checks, "
              "200 instances", True)

    def test_verdict_implication_chains(self, spec23, origin):
        import test_verify

        rng = np.random.default_rng(105)
        for _ in range(200):
            spec, xbar = test_verify._random_biobjective(rng)
            region = (-1, 1, -1, 1)
            if classify_point(spec, xbar, "efficient", region,
                              21).no_counterexample:
                assert classify_point(spec, xbar, "weak", region,
                                      21).no_counterexample
            if classify_point(spec, xbar, "quasi", region,
                              21).no_counterexample:
                assert classify_point(spec, xbar, "weak-quasi", region,
                                      21).no_counterexample
        repII = pseudoconvex_test(spec23, origin, "II",
                                  region=(-2, 2, -2, 2), grid=9,
                                  y_resolution=10)
        repI = pseudoconvex_test(spec23, origin, "I", region=(-2, 2, -2, 2),
                                 grid=9, y_resolution=10)
        assert repI.verdicts.size == repII.verdicts.size == 81
        for vI, vII in zip(repI.verdicts, repII.verdicts):
            assert vI != "INCONCLUSIVE" or vII == "INCONCLUSIVE"
        _crit("criterion 8e: verdict implication chains "
              "(efficient => weak, type II => type I)", True)

    def test_limiting_subset_of_hull(self):
        rng = np.random.default_rng(106)
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
                inside, _ = H.contains(vert)
                assert inside
            checked += 1
        _crit("criterion 8f: limiting set inside hull set, 200 instances",
              True)
