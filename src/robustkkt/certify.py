"""Constraint qualification, robust approximate KKT certificates, the fuzzy
necessary-condition demonstrator and generalized pseudo-convexity testing.

Certificates follow the worked problems' arithmetic: the scalarized
objective term is the weighted sum of per-objective subgradient choices,
constraint terms come from the sup-rule hulls, the ball term is scaled by
<y*, theta>, and everything must cancel against a normal-cone element.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .funcdsl import eval_expr
from .lp import LPBuilder
from .robustfeas import (
    ProblemSpec,
    Psi,
    compute_active_sets,
    feasible_active_sets,
)
from .setcalc import (
    PolyCone,
    Polytope,
    _add_stationarity_rows,
    _cross,
    _monotone_chain,
    dual_ball,
    normal_cone,
    point_in_cone_residual,
    zero_in_sum,
)
from .subdiff import Scalarization, constraint_set, direct_subdiff, \
    limiting_subdiff, objective_set

COMPLEMENTARITY_TOL = 1e-8
MEMBERSHIP_TOL = 1e-9
EPS_STRICT = 1e-7
EPS_YSTAR_MIN = 1e-6


class CertifyError(Exception):
    pass


def primal_ball(norm: str, d: int, m: int) -> Polytope:
    """Polyhedral inner approximation of the primal-norm unit ball."""
    if norm == "l2":
        return dual_ball("l2", d, m)
    if norm == "l1":
        return dual_ball("linf", d)
    if norm == "linf":
        return dual_ball("l1", d)
    raise CertifyError(f"unsupported norm {norm!r}")


def dual_norm_value(norm: str, b) -> float:
    b = np.asarray(b, dtype=float).reshape(-1)
    if norm == "l2":
        return float(np.linalg.norm(b))
    if norm == "l1":  # dual of l1 is linf
        return float(np.max(np.abs(b), initial=0.0))
    return float(np.sum(np.abs(b)))  # dual of linf is l1


# ---------------------------------------------------------------------------
# Constraint qualification
# ---------------------------------------------------------------------------

@dataclass
class CQReport:
    holds: bool
    index_set: tuple[int, ...]
    per_index: list[dict]
    provenance: dict[str, str]


def check_cq(spec: ProblemSpec, xbar, use_fixtures: bool = False) -> CQReport:
    """Definition-style CQ: for every envelope-active index, zero must miss
    the sup-rule hull plus the normal cone."""
    acts = feasible_active_sets(spec, xbar)
    if acts is None:
        raise CertifyError("CQ is only defined at robust-feasible points")
    N = normal_cone(spec.omega, xbar)
    per = []
    prov: dict[str, str] = {}
    holds = True
    for i in acts.index_set:
        S, origin = constraint_set(spec, i, xbar, acts, "hull", use_fixtures)
        prov[spec.constraints[i - 1].name] = origin
        res = zero_in_sum([S], N)
        ok = not res.sat
        holds = holds and ok
        entry = {"i": i, "zero_excluded": ok}
        if res.sat:
            entry["witness"] = [w.tolist() for w in res.witness_points([S])]
        per.append(entry)
    return CQReport(holds, acts.index_set, per, prov)


# ---------------------------------------------------------------------------
# KKT certificates
# ---------------------------------------------------------------------------

@dataclass
class KKTCertificate:
    ystar: np.ndarray                  # in K+ \ {0}
    mu: np.ndarray                     # nonnegative multipliers
    u: list[np.ndarray]                # per-objective subgradient choices
    v: list[np.ndarray]                # per-constraint sup-rule elements
    vbar: list[float]                  # active scenarios backing each v
    bstar: np.ndarray                  # dual-ball element
    astar: np.ndarray                  # normal-cone element

    def residual_vector(self, theta) -> np.ndarray:
        total = np.zeros_like(self.bstar, dtype=float)
        for yj, uj in zip(self.ystar, self.u):
            total = total + float(yj) * np.asarray(uj, dtype=float)
        for mi, vi in zip(self.mu, self.v):
            total = total + float(mi) * np.asarray(vi, dtype=float)
        r = float(np.dot(self.ystar, theta))
        total = total + r * np.asarray(self.bstar, dtype=float)
        total = total + np.asarray(self.astar, dtype=float)
        return total

    def residual(self, theta) -> float:
        return float(np.linalg.norm(self.residual_vector(theta)))

    def to_jsonable(self) -> dict:
        return {
            "ystar": self.ystar.tolist(),
            "mu": self.mu.tolist(),
            "u": [np.asarray(u).tolist() for u in self.u],
            "v": [np.asarray(v).tolist() for v in self.v],
            "vbar": list(self.vbar),
            "bstar": self.bstar.tolist(),
            "astar": self.astar.tolist(),
        }


@dataclass
class KKTCheckReport:
    valid: bool
    residual: float
    checks: list[dict] = field(default_factory=list)
    provenance: dict[str, str] = field(default_factory=dict)


def check_kkt(spec: ProblemSpec, xbar, cert: KKTCertificate, tol: float = 1e-9,
              mode: str = "hull", use_fixtures: bool = False,
              mem_tol: float = MEMBERSHIP_TOL) -> KKTCheckReport:
    """Verify every membership and the residual of a certificate."""
    xbar = np.asarray(xbar, dtype=float).reshape(-1)
    p, n, d = spec.n_objectives, spec.n_constraints, spec.dim
    if (len(cert.u) != p or len(cert.v) != n or cert.ystar.shape[0] != p
            or cert.mu.shape[0] != n or cert.bstar.shape[0] != d):
        raise CertifyError("certificate fields dimensionally inconsistent")
    checks: list[dict] = []
    prov: dict[str, str] = {}

    kplus = spec.cone.dual()
    ok_y = kplus.contains(cert.ystar) and float(
        np.max(np.abs(cert.ystar))) > 1e-12
    checks.append({"name": "ystar_in_Kplus_nonzero", "ok": bool(ok_y)})

    ok_mu = bool(np.all(cert.mu >= -1e-12))
    checks.append({"name": "mu_nonnegative", "ok": ok_mu})

    acts = compute_active_sets(spec, xbar)
    comp_ok = True
    for i in range(1, n + 1):
        val = float(cert.mu[i - 1]) * acts.phis[i - 1]
        comp_ok = comp_ok and abs(val) <= COMPLEMENTARITY_TOL
        checks.append({"name": f"complementarity_{spec.constraints[i-1].name}",
                       "ok": abs(val) <= COMPLEMENTARITY_TOL, "value": val})

    memb_ok = True
    for j in range(1, p + 1):
        S, origin = objective_set(spec, j, xbar, mode, use_fixtures)
        prov[spec.objective_names[j - 1]] = origin
        inside, res = S.contains(cert.u[j - 1], mem_tol)
        memb_ok = memb_ok and inside
        checks.append({"name": f"u_in_subdiff_{spec.objective_names[j-1]}",
                       "ok": bool(inside), "residual": res})
    for i in range(1, n + 1):
        S, origin = constraint_set(spec, i, xbar, acts, "hull", use_fixtures)
        prov[spec.constraints[i - 1].name] = origin
        inside, res = S.contains(cert.v[i - 1], mem_tol)
        memb_ok = memb_ok and inside
        checks.append({"name": f"v_in_suprule_{spec.constraints[i-1].name}",
                       "ok": bool(inside), "residual": res})

    bnorm = dual_norm_value(spec.norm, cert.bstar)
    ok_b = bnorm <= 1.0 + 1e-12
    checks.append({"name": "bstar_in_dual_ball", "ok": bool(ok_b),
                   "dual_norm": bnorm})

    N = normal_cone(spec.omega, xbar)
    ares = point_in_cone_residual(cert.astar, N)
    ok_a = ares <= mem_tol
    checks.append({"name": "astar_in_normal_cone", "ok": bool(ok_a),
                   "residual": ares})

    resid = cert.residual(spec.theta)
    ok_r = resid <= tol
    checks.append({"name": "stationarity_residual", "ok": bool(ok_r),
                   "residual": resid, "tol": tol})

    valid = bool(ok_y and ok_mu and comp_ok and memb_ok and ok_b and ok_a and ok_r)
    return KKTCheckReport(valid, resid, checks, prov)


@dataclass
class KKTSearchReport:
    found: bool
    certificate: KKTCertificate | None
    recheck: KKTCheckReport | None
    active_indices: tuple[int, ...]
    selections_tried: int
    provenance: dict[str, str] = field(default_factory=dict)


def search_kkt(spec: ProblemSpec, xbar, mode: str = "limiting",
               use_fixtures: bool = False, eps_min: float = EPS_YSTAR_MIN,
               tol: float = 1e-9) -> KKTSearchReport:
    """One-LP search for a robust approximate KKT certificate at xbar.

    K is a sign orthant, so the substitution y*_j = sigma_j s_j makes the
    whole inclusion linear in vertex weights whose group totals are the
    multipliers; the 1-norm normalization sum(s) + sum(mu) = 1 plus
    sum(s) >= eps_min pins the scale and forbids y* = 0.
    """
    xbar = np.asarray(xbar, dtype=float).reshape(-1)
    acts = feasible_active_sets(spec, xbar)
    if acts is None:
        raise CertifyError("search_kkt requires a robust-feasible point")
    p, n, d = spec.n_objectives, spec.n_constraints, spec.dim
    actives = [i for i in range(1, n + 1)
               if acts.phis[i - 1] >= -spec.feas_tol]
    prov: dict[str, str] = {}

    obj_sets = []
    for j in range(1, p + 1):
        S, origin = objective_set(spec, j, xbar, mode, use_fixtures)
        prov[spec.objective_names[j - 1]] = origin
        obj_sets.append(S)
    con_sets = {}
    for i in actives:
        S, origin = constraint_set(spec, i, xbar, acts, "hull", use_fixtures)
        prov[spec.constraints[i - 1].name] = origin
        con_sets[i] = S.components[0] if S.ncomponents == 1 else Polytope(
            S.all_vertices(), reduce=True)
    ball = dual_ball(spec.norm, d, spec.ball_facets)
    N = normal_cone(spec.omega, xbar)

    sigma = np.asarray(spec.cone.dual().pattern, dtype=float)
    tried = 0
    for selection in itertools.product(*(range(s.ncomponents) for s in obj_sets)):
        tried += 1
        lp = LPBuilder()
        obj_vars = []
        for j in range(p):
            comp = obj_sets[j].components[selection[j]]
            ids = lp.add_vars(comp.nverts)
            obj_vars.append((ids, sigma[j] * comp.vertices))
        con_vars = {}
        for i in actives:
            comp = con_sets[i]
            con_vars[i] = (lp.add_vars(comp.nverts), comp.vertices)
        ball_ids = lp.add_vars(ball.nverts)
        cone_ids = _add_stationarity_rows(
            lp, [*obj_vars, *con_vars.values(), (ball_ids, ball.vertices)], N)
        # ball weight total equals <y*, theta> = sum_j sigma_j theta_j s_j
        row = {vid: 1.0 for vid in ball_ids}
        for j, (ids, _) in enumerate(obj_vars):
            coef = -sigma[j] * spec.theta[j]
            if coef != 0.0:
                for vid in ids:
                    row[vid] = row.get(vid, 0.0) + coef
        lp.add_eq(row, 0)
        # normalization and y* != 0
        s_ids = [vid for ids, _ in obj_vars for vid in ids]
        mu_ids = [vid for ids, _ in con_vars.values() for vid in ids]
        lp.add_eq(dict.fromkeys(s_ids + mu_ids, 1.0), 1)
        lp.add_ub(dict.fromkeys(s_ids, -1.0), -eps_min)
        res = lp.solve()
        if not res.feasible:
            continue

        # assemble the certificate from group weights
        ystar = np.zeros(p)
        u = []
        for j, (ids, _) in enumerate(obj_vars):
            comp = obj_sets[j].components[selection[j]]
            w = res.values[np.asarray(ids)]
            s = float(np.sum(w))
            ystar[j] = sigma[j] * s
            u.append(w @ comp.vertices / s if s > 1e-15
                     else comp.vertices[0].copy())
        mu = np.zeros(n)
        vsel = []
        vbar = []
        for i in range(1, n + 1):
            if i in con_vars:
                ids, V = con_vars[i]
                w = res.values[np.asarray(ids)]
                m = float(np.sum(w))
                mu[i - 1] = m
                vsel.append(w @ V / m if m > 1e-15 else V[0].copy())
            else:
                S, origin = constraint_set(spec, i, xbar, acts, "hull",
                                           use_fixtures)
                prov[spec.constraints[i - 1].name] = origin
                vsel.append(S.all_vertices()[0].copy())
            scen = acts.scenarios[i - 1]
            vbar.append(scen[0] if scen else 0.0)
        wb = res.values[np.asarray(ball_ids)]
        radius = float(np.sum(wb))
        bstar = (wb @ ball.vertices / radius) if radius > 1e-15 else np.zeros(d)
        astar = np.zeros(d)
        if cone_ids:
            astar = res.values[np.asarray(cone_ids)] @ N.generators
        cert = KKTCertificate(ystar, mu, u, vsel, vbar, bstar, astar)
        recheck = check_kkt(spec, xbar, cert, tol, mode, use_fixtures)
        return KKTSearchReport(True, cert, recheck, tuple(actives), tried,
                               provenance=prov)
    return KKTSearchReport(False, None, None, tuple(actives), tried,
                           provenance=prov)


# ---------------------------------------------------------------------------
# Fuzzy condition demonstrator
# ---------------------------------------------------------------------------

@dataclass
class FuzzyKKTWitness:
    x_eta: np.ndarray
    lam: tuple[float, float]
    mu: np.ndarray
    scenarios: tuple[float, ...]
    inclusion_residual: float
    comp_residual_obj: float
    comp_residual_con: float
    normalization: float


@dataclass
class FuzzyReport:
    found: bool
    witness: FuzzyKKTWitness | None
    diagnostic: str = ""


def fuzzy_kkt_demo(spec: ProblemSpec, xbar, ystar, eta: float,
                   radius: float | None = None, grid_n: int = 81,
                   comp_tol: float = 1e-9, mode: str = "limiting") -> FuzzyReport:
    """Locate an Ekeland-style point and solve the perturbed inclusion.

    The merit function psi is grid-minimized over the ground set within the
    search radius; the inclusion LP then runs at the located point with
    ball radius <y*, theta>/eta and branch gates matching the two
    complementarity relations.
    """
    xbar = np.asarray(xbar, dtype=float).reshape(-1)
    ystar = np.asarray(ystar, dtype=float).reshape(-1)
    if float(np.max(np.abs(ystar), initial=0.0)) <= 1e-15:
        raise CertifyError("fuzzy demonstrator needs a nonzero ystar")
    if eta <= 0:
        raise CertifyError("eta must be positive")
    R = eta if radius is None else float(radius)
    step = 2.0 * R / (grid_n - 1)
    if step > eta:
        return FuzzyReport(False, None,
                           "grid resolution coarser than eta; no search point")
    merit = Psi(spec, ystar, xbar)
    axes = [np.linspace(xbar[k] - R, xbar[k] + R, grid_n)
            for k in range(spec.dim)]
    mesh = np.meshgrid(*axes, indexing="ij")
    X = np.vstack([m.ravel() for m in mesh])
    dist = spec.primal_norm_grid(X - xbar[:, None])
    keep = (dist <= eta + 1e-12) & spec.omega.contains_grid(X)
    if not np.any(keep):
        return FuzzyReport(False, None, "no admissible grid point within eta")
    cells, keys = merit.candidate_keys(X[:, keep])
    Xc, dc = X[:, keep][:, cells], dist[keep][cells]
    order = np.lexsort((*(Xc[k] for k in reversed(range(spec.dim))), dc,
                        keys))
    x_eta = Xc[:, order[0]].copy()

    acts = compute_active_sets(spec, x_eta)
    f_branch = float(np.dot(ystar, spec.fvec(x_eta) - spec.fvec(xbar)
                            + spec.theta))
    psi_val = max(f_branch, acts.phi)
    tight1 = f_branch >= psi_val - max(comp_tol, 1e-9)
    tight2 = acts.phi >= psi_val - max(comp_tol, 1e-9)

    fset = direct_subdiff(ystar, spec.objectives, x_eta, mode,
                          spec.kink_tol).set
    idx = list(acts.index_set)
    con_polys = {}
    scen_used = {}
    for i in idx:
        S, _ = constraint_set(spec, i, x_eta, acts, "hull")
        con_polys[i] = S.components[0] if S.ncomponents == 1 else Polytope(
            S.all_vertices(), reduce=True)
        scen = acts.scenarios[i - 1]
        scen_used[i] = scen[0] if scen else 0.0
    ball = dual_ball(spec.norm, spec.dim, spec.ball_facets)
    N = normal_cone(spec.omega, x_eta)
    ytheta = float(np.dot(ystar, spec.theta))
    ball_total = ytheta / eta

    for comp in fset.components:
        lp = LPBuilder()
        a1 = lp.add_var()
        a2 = lp.add_var()
        f_ids = lp.add_vars(comp.nverts)
        lp.add_eq({**{t: 1.0 for t in f_ids}, a1: -1.0}, 0)
        c_vars = {}
        c_row = {a2: -1.0}
        for i in idx:
            ids = lp.add_vars(con_polys[i].nverts)
            c_vars[i] = ids
            for vid in ids:
                c_row[vid] = 1.0
        lp.add_eq(c_row, 0)
        ball_ids = lp.add_vars(ball.nverts)
        lp.add_eq({vid: 1.0 for vid in ball_ids}, ball_total)
        groups = [(f_ids, comp.vertices),
                  *((c_vars[i], con_polys[i].vertices) for i in idx),
                  (ball_ids, ball.vertices)]
        cone_ids = _add_stationarity_rows(lp, groups, N)
        lp.add_eq({a1: 1.0, a2: 1.0}, 1)
        if not tight1:
            lp.add_eq({a1: 1.0}, 0)
        if not tight2 or not idx:
            lp.add_eq({a2: 1.0}, 0)
        res = lp.solve()
        if not res.feasible:
            continue
        a1v = float(res.values[a1])
        a2v = float(res.values[a2])
        mu_bar = np.zeros(spec.n_constraints)
        if a2v > 1e-15:
            for i in idx:
                mu_bar[i - 1] = float(np.sum(res.values[np.asarray(c_vars[i])])) / a2v
        elif idx:
            mu_bar[idx[0] - 1] = 1.0
        lam1 = a1v
        norm_mu_bar = float(np.sum(mu_bar))
        lam2 = a1v * float(np.sum(np.abs(ystar))) + norm_mu_bar
        if lam2 <= 1e-15:
            continue
        mu = mu_bar / lam2

        total = np.zeros(spec.dim)
        for ids, V in groups:
            total += res.values[np.asarray(ids)] @ V
        if cone_ids:
            total += res.values[np.asarray(cone_ids)] @ N.generators
        incl_res = float(np.linalg.norm(total))
        comp1 = (lam1 / lam2) * (f_branch - psi_val)
        comp2 = 0.0
        for i in idx:
            gi = eval_expr(spec.constraints[i - 1].expr, x_eta,
                           scen_used[i] if spec.constraints[i - 1].has_uncertainty
                           else None)
            comp2 = max(comp2, abs((1.0 - lam1) * mu[i - 1] * (gi - psi_val)))
        normalization = (lam1 / lam2) * float(np.sum(np.abs(ystar))) + float(
            np.sum(np.abs(mu)))
        witness = FuzzyKKTWitness(
            x_eta, (lam1, lam2), mu,
            tuple(scen_used.get(i, 0.0) for i in range(1, spec.n_constraints + 1)),
            incl_res, comp1, comp2, normalization)
        return FuzzyReport(True, witness)
    return FuzzyReport(False, None, "inclusion LP unsatisfiable at x_eta")


# ---------------------------------------------------------------------------
# Generalized pseudo-convexity testing
# ---------------------------------------------------------------------------

@dataclass
class SampleVerdict:
    x: np.ndarray
    verdict: str                # VERIFIED-CANDIDATE-W | VERIFIED-COMMON-W |
    #                             INCONCLUSIVE | WITNESSED-FAILURE
    premise_active: int = 0
    detail: str = ""

    @property
    def verified(self) -> bool:
        return self.verdict in ("VERIFIED-CANDIDATE-W", "VERIFIED-COMMON-W")


@dataclass
class PseudoReport:
    ptype: str
    verdicts: list[SampleVerdict]
    all_verified: bool
    lp_optimum: float | None = None   # explicit-witness path only


def ystar_grid(spec: ProblemSpec, resolution: int = 24) -> np.ndarray:
    """Interior midpoint grid on the l1-normalized cross-section of K+.

    Midpoint (open) parametrization keeps degenerate boundary rays such as
    single-objective unit vectors off the grid; those edges are exercised
    through explicit witnesses instead.
    """
    gens = _dual_generators(spec)
    m = gens.shape[0]
    if m == 1:
        return gens / np.sum(np.abs(gens[0]))
    out = []
    for weights in _simplex_grid(m, resolution):
        y = weights @ gens
        l1 = float(np.sum(np.abs(y)))
        if l1 > 1e-12:
            out.append(y / l1)
    return np.array(out)


def ystar_grid_size(spec: ProblemSpec, resolution: int) -> int:
    """The number of points ystar_grid visits, without building them."""
    m = _dual_generators(spec).shape[0]
    return 1 if m == 1 else resolution ** (m - 1)


def _dual_generators(spec: ProblemSpec) -> np.ndarray:
    return np.eye(spec.n_objectives) * np.asarray(
        spec.cone.dual().pattern, dtype=float)[:, None]


def _simplex_grid(m: int, resolution: int):
    """Midpoint stick-breaking grid over the (m-1)-simplex."""
    if m == 1:
        yield np.array([1.0])
        return
    ticks = (np.arange(resolution) + 0.5) / resolution
    for combo in itertools.product(ticks, repeat=m - 1):
        w = np.zeros(m)
        remaining = 1.0
        for k, t in enumerate(combo):
            w[k] = remaining * t
            remaining *= (1.0 - t)
        w[m - 1] = remaining
        yield w


def _constraint_rows(spec: ProblemSpec, xbar):
    """Per (constraint, active scenario): scenario, base value, vertex rows."""
    acts = compute_active_sets(spec, xbar)
    rows = []
    for i in range(1, spec.n_constraints + 1):
        con = spec.constraints[i - 1]
        scens = acts.scenarios[i - 1] if con.has_uncertainty else [None]
        for vsc in scens:
            base = eval_expr(con.expr, xbar, vsc)
            sd = limiting_subdiff(con.expr, xbar, vsc, "limiting",
                                  spec.kink_tol)
            rows.append((i, vsc, base, sd.set.all_vertices()))
    return rows


def pseudoconvex_test(spec: ProblemSpec, xbar, ptype: str,
                      samples: np.ndarray | None = None,
                      region=None, grid: int = 21, y_resolution: int = 24,
                      eps_strict: float = EPS_STRICT, mode: str = "limiting",
                      witness: dict | None = None) -> PseudoReport:
    """Sampled sufficient test of type I/II pseudo convexity at xbar.

    For every sample x and every y* on the dual-cone grid whose scalarized
    premise holds, a witness direction w is sought: first the candidate
    w = x - xbar, then the max-margin w per convex component of the
    scalarized subdifferential (the definition lets w depend on the
    subgradient choice), found by planar geometry in dimension 2 and by
    an LP otherwise.  INCONCLUSIVE never asserts failure; failures
    come only from an explicit witness tuple, checked exactly.
    """
    if ptype not in ("I", "II"):
        raise CertifyError("type must be 'I' or 'II'")
    xbar = np.asarray(xbar, dtype=float).reshape(-1)
    if not spec.omega.contains(xbar):
        raise CertifyError("xbar must lie in the ground set")

    if witness is not None:
        return _witnessed_failure_check(spec, xbar, ptype, witness)

    if samples is None:
        if region is None:
            raise CertifyError("provide samples or a sampling region")
        if spec.dim != 2:
            raise CertifyError("grid sampling requires dimension 2")
        a1, b1, a2, b2 = [float(t) for t in region]
        g1, g2 = np.meshgrid(np.linspace(a1, b1, grid),
                             np.linspace(a2, b2, grid), indexing="ij")
        samples = np.vstack([g1.ravel(), g2.ravel()]).T
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    inside = spec.omega.contains_grid(samples.T)
    samples = samples[inside]

    ys = ystar_grid(spec, y_resolution)
    fbar = spec.fvec(xbar)
    F = spec.fvec_grid(samples.T)          # (p, N)
    D = samples.T - xbar[:, None]
    norms = spec.primal_norm_grid(D)       # (N,)
    # premise margins m(x, y) for the whole grid at once
    G = ys @ (F - fbar[:, None]) + np.outer(ys @ spec.theta, norms)  # (M, N)
    if ptype == "I":
        # the premise is a strict inequality; eps_strict is the margin used
        # for strict inequalities throughout
        active = G < -eps_strict
    else:
        active = G <= 1e-12
    active[:, norms <= 1e-12] = False

    con_rows = _constraint_rows(spec, xbar)
    T = len(con_rows)
    con_base = {t: (row[2], row[3]) for t, row in enumerate(con_rows)}
    con_prem = np.zeros((T, samples.shape[0]), dtype=bool)
    row_cand_ok = np.ones((T, samples.shape[0]), dtype=bool)
    for t, (i, vsc, base, verts) in enumerate(con_rows):
        vals = np.array([eval_expr(spec.constraints[i - 1].expr, s, vsc)
                         for s in samples])
        con_prem[t] = vals <= base + 1e-12
        if verts.size:
            row_cand_ok[t] = np.max(verts @ D, axis=0) <= 1e-12
    # candidate w = x - xbar against premise-holding constraint rows
    cand_g_ok = ~np.any(con_prem & ~row_cand_ok, axis=0)

    N = normal_cone(spec.omega, xbar)
    cone_ok = np.ones(samples.shape[0], dtype=bool)
    for k in range(N.generators.shape[0]):
        vals = N.generators[k] @ D
        if N.lineality[k]:
            cone_ok &= np.abs(vals) <= 1e-12
        else:
            cone_ok &= vals <= 1e-12

    pball = primal_ball(spec.norm, spec.dim, spec.ball_facets)
    l2_dirs = spec.norm == "l2"
    ytheta_all = ys @ spec.theta
    cand_ok = cand_g_ok & cone_ok
    # one id per distinct premise-row mask (column of con_prem)
    masks, mask_id = np.unique(con_prem.T, axis=0, return_inverse=True)
    mask_id = mask_id.reshape(-1)
    cut_rows = [_witness_cuts(spec.dim, np.flatnonzero(m).tolist(), con_base,
                              N) for m in masks]
    geometry = None  # the planar geometry, built when a margin first needs it
    scalarize = Scalarization(spec.objectives, xbar, mode, spec.kink_tol)

    # A sample fails at the first y* (in index order) with neither the
    # candidate w = x - xbar nor a witness margin >= eps_strict; later y*
    # are not examined for it.  The margin problem is positively
    # homogeneous in ||x - xbar||, so one normalized margin per (y*, mask)
    # serves every sample sharing that mask.
    first_fail = np.full(samples.shape[0], -1)
    needs_margin = np.zeros(samples.shape[0], dtype=bool)
    fail_detail: dict[int, str] = {}
    for myi in np.flatnonzero(active.any(axis=1)).tolist():
        cols = np.flatnonzero(active[myi] & (first_fail < 0))
        if not cols.size:
            continue
        sset = scalarize(ys[myi]).set
        ytheta = float(ytheta_all[myi])
        top = (sset.all_vertices() @ D[:, cols]).max(axis=0)
        left = cols[~(cand_ok[cols] & (top + norms[cols] * ytheta <= -1e-12))]
        if not left.size:
            continue
        needs_margin[left] = True
        ids, inverse = np.unique(mask_id[left], return_inverse=True)
        if spec.dim == 2:
            geometry = geometry or _SweepGeometry(pball, l2_dirs, cut_rows)
            margin = geometry.margins(sset.components, ytheta, ids)
        else:
            margin = np.array([
                _lp_margin(sset.components, ytheta, *cut_rows[j], pball,
                           l2_dirs) for j in ids.tolist()])
        failed = left[margin[inverse.reshape(-1)] * norms[left] < eps_strict]
        if failed.size:
            first_fail[failed] = myi
            fail_detail[myi] = (f"no witness margin >= {eps_strict:g} at "
                                f"y*={np.round(ys[myi], 6).tolist()}")

    verdicts: list[SampleVerdict] = []
    for x, fail, common, n_active in zip(samples, first_fail.tolist(),
                                         needs_margin.tolist(),
                                         active.sum(axis=0).tolist()):
        if fail >= 0:
            verdicts.append(SampleVerdict(x, "INCONCLUSIVE", n_active,
                                          fail_detail[fail]))
        else:
            verdicts.append(SampleVerdict(
                x, "VERIFIED-COMMON-W" if common else "VERIFIED-CANDIDATE-W",
                n_active))
    all_ok = all(v.verified for v in verdicts)
    return PseudoReport(ptype, verdicts, all_ok)


def _lp_margin(components, ytheta: float, cuts: np.ndarray, lines: np.ndarray,
               pball: Polytope, l2_dirs: bool) -> float:
    """_SweepGeometry.margins off the plane, one mask, one LP each."""
    best = math.inf
    for comp in components:
        found = _lp_witness_margin(comp.vertices, ytheta,
                                   _witness_ball(comp, pball, l2_dirs),
                                   cuts, lines)
        if found is None:
            return -math.inf
        best = min(best, found[0])
    return best


def _witness_ball(comp: Polytope, pball: Polytope,
                  l2_exact_dirs: bool) -> np.ndarray:
    """Vertices of the unit ball the witness w ranges over.

    With l2_exact_dirs the inscribed ball gains the exact unit directions
    opposite the component's vertices (still on the sphere, so still an
    inner approximation); this removes the polygon deficit along the
    directions that matter near premise boundaries.
    """
    ball = pball.vertices
    if l2_exact_dirs:
        extra = []
        for u in comp.vertices:
            nu = float(np.linalg.norm(u))
            if nu > 1e-15:
                extra.append(-u / nu)
        if extra:
            ball = np.vstack([ball, np.array(extra)])
    return ball


def _witness_cuts(d: int, rows_here, con_base, N: PolyCone
                  ) -> tuple[np.ndarray, np.ndarray]:
    """(cuts, lines): w must meet <a, w> <= 0 for the rows a of cuts and
    <g, w> = 0 for the rows g of lines."""
    cuts = [vert for t in rows_here for vert in con_base[t][1]
            if np.any(vert != 0.0)]
    cuts.extend(N.generators[~N.lineality])
    return np.array(cuts).reshape(-1, d), N.generators[N.lineality]


def _lp_witness_margin(U: np.ndarray, offset: float, ball: np.ndarray,
                       cuts: np.ndarray, lines: np.ndarray
                       ) -> tuple[float, np.ndarray] | None:
    """Max margin delta >= 0 with <u, w> + offset <= -delta for every row u
    of U, and the maximising w, as one HiGHS LP; None if no w has a
    nonnegative margin.  w ranges over the hull of the rows of ball, with
    <a, w> <= 0 for the rows a of cuts and <a, w> = 0 for those of lines."""
    d = U.shape[1]
    lp = LPBuilder()
    w_ids = lp.add_vars(d, free=True)
    delta = lp.add_var()
    lam = lp.add_vars(ball.shape[0])
    # w = sum lam_b * ball_vertex, sum lam <= 1
    for a in range(d):
        row = {w_ids[a]: 1.0}
        for t, vid in enumerate(lam):
            row[vid] = -ball[t, a]
        lp.add_eq(row, 0)
    lp.add_ub({vid: 1.0 for vid in lam}, 1)
    for vert in U:
        row = {delta: 1.0}
        for a in range(d):
            if vert[a] != 0.0:
                row[w_ids[a]] = vert[a]
        lp.add_ub(row, -offset)
    for cut in cuts:
        row = {w_ids[a]: cut[a] for a in range(d) if cut[a] != 0.0}
        if row:
            lp.add_ub(row, 0)
    for g in lines:
        lp.add_eq({w_ids[a]: g[a] for a in range(d) if g[a] != 0.0}, 0)
    lp.set_objective({delta: -1.0})  # maximize delta
    res = lp.solve(engine="float")
    if not res.feasible:
        return None
    return -res.objective, res.values[np.asarray(w_ids)]


_CUT_TOL = 1e-12


class _SweepGeometry:
    """The planar witness margins of one sweep.

    w ranges over the witness ball clipped to the wedge of a mask's walls
    <a, w> <= 0, and min_u -<u, w> is linear between the tie lines
    <u_i - u_j, w> = 0, so the optimum is the origin or the boundary point
    of a ball vertex, wall ray or tie ray.  The base polygon (the hull of
    the primal ball) and each mask's cut tests of its vertices and wall
    rays are built once; a component's exact directions go in by binary
    search on angle (Preparata & Shamos, Computational Geometry, 1985,
    sec. 3.3.6), and one stacked evaluation serves all the masks.
    """

    def __init__(self, pball: Polytope, l2_dirs: bool, cut_rows: list):
        self.pball, self.l2_dirs = pball, l2_dirs
        H, normals, heights = _planar_ball(pball.vertices)
        # rows (vertex, normal and height of the edge it starts) by angle,
        # which is a rotation of the counterclockwise H
        ang = np.arctan2(H[:, 1], H[:, 0])
        order = np.argsort(ang)
        self.sorted = np.column_stack([H, normals, heights])[order], ang[order]
        # a mask's walls are its cuts, and its lines cutting both ways
        walls = [np.vstack([cuts, lines, -lines]) for cuts, lines in cut_rows]
        self.walls = np.vstack(walls)
        self.wall_norms = np.linalg.norm(self.walls, axis=1)
        owner = np.repeat(np.arange(len(walls)), [w.shape[0] for w in walls])
        self.wall_owner = owner == np.arange(len(walls))[:, None]
        live = np.any(self.walls != 0.0, axis=1)
        perp = np.column_stack([-self.walls[live, 1], self.walls[live, 0]])
        perp = np.vstack([perp, -perp])  # the rays along each wall
        # a mask sees its own wall rays, those that pass its cut test
        pown = np.tile(owner[live], 2)
        perp_ok = (pown == np.arange(len(walls))[:, None]) & self.cut_ok(
            perp)[pown, np.arange(pown.size)]
        base = self.sorted[0][:, :2]
        self.known = (np.vstack([base, perp]),
                      np.hstack([self.cut_ok(base), perp_ok]))
        self.perp_known = (perp, perp_ok)

    def cut_ok(self, rays: np.ndarray) -> np.ndarray:
        """(masks, rays): does <a, r> <= _CUT_TOL |a| |r| for every wall a."""
        slack = self.walls @ rays.T
        bad = slack > _CUT_TOL * np.outer(self.wall_norms,
                                          np.linalg.norm(rays, axis=1))
        return ~(self.wall_owner @ bad)

    def polygon(self, ball: np.ndarray):
        """_planar_ball(ball) for a witness ball (_witness_ball), and whether
        it came by inserting the rows past the primal ball's into the base
        polygon; an insertion not clearly convex falls back to the hull."""
        G, ang = self.sorted
        for e in ball[self.pball.nverts:]:
            a = np.arctan2(e[1], e[0])
            n = G.shape[0]
            k = int(np.searchsorted(ang, a)) or n  # between G[k - 1], G[k]
            pp, p, q, qq = G[[k - 2, k - 1, k % n, (k + 1) % n], :2].tolist()
            et = e.tolist()
            if min(_cross(pp, p, et), _cross(p, et, q),
                   _cross(et, q, qq)) <= 1e-12:
                return _planar_ball(ball), False
            # the edge p -> q becomes p -> e -> q
            new = np.array([[*p, et[1] - p[1], -(et[0] - p[0])],
                            [*et, q[1] - et[1], -(q[0] - et[0])]])
            new = np.column_stack([new, np.einsum("ij,ij->i", new[:, 2:],
                                                  new[:, :2])])
            G = np.concatenate([G[:k - 1], new, G[k:]])
            ang = np.concatenate([ang[:k], [a], ang[k:]])
        # counterclockwise from the lexicographically least vertex
        s = int(np.lexsort((G[:, 1], G[:, 0]))[0])
        G = np.concatenate([G[s:], G[:s]])
        return (G[:, :2], G[:, 2:4], G[:, 4]), True

    def margins(self, components, ytheta: float, ids: np.ndarray
                ) -> np.ndarray:
        """The witness margin at ||x - xbar|| = 1 of each mask id in ids:
        the least over the components of _lp_witness_margin's margin, -inf
        if some component has none."""
        best = np.full(ids.size, math.inf)
        for comp in components:
            U = comp.vertices
            ball = _witness_ball(comp, self.pball, self.l2_dirs)
            (H, normals, heights), inserted = self.polygon(ball)
            (rays, ok), fresh = ((self.known, ball[self.pball.nverts:])
                                 if inserted else (self.perp_known, H))
            if U.shape[0] > 1:
                t = (U[:, None, :] - U[None, :, :])[
                    np.triu_indices(U.shape[0], 1)]
                ties = np.column_stack([-t[:, 1], t[:, 0]])
                fresh = np.vstack([fresh, ties, -ties])
            rays = np.vstack([rays, fresh])
            ok = np.hstack([ok, self.cut_ok(fresh)])[ids]
            # the ray along r leaves the ball at r / gauge(r)
            gauge = np.max((rays @ normals.T) / heights, axis=1)
            vals = -np.max((rays / gauge[:, None]) @ U.T, axis=1) - ytheta
            # the origin, w = 0, is always admissible
            m = np.max(np.where(ok, vals, -math.inf), axis=1,
                       initial=-ytheta)
            best = np.minimum(best, np.where(m < 0.0, -math.inf, m))
        return best


def _planar_ball(ball: np.ndarray):
    """(vertices, outward edge normals, edge heights) of the convex hull of
    the (n, 2) rows of ball, vertices counterclockwise.  The ball holds the
    origin in its interior, as every primal_ball does, so every height is
    positive."""
    P = list(map(tuple, ball.tolist()))
    H = np.array([P[k] for k in _monotone_chain(P, range(len(P)))])
    edges = np.roll(H, -1, axis=0) - H
    normals = np.column_stack([edges[:, 1], -edges[:, 0]])
    return H, normals, np.einsum("ij,ij->i", normals, H)


def _witnessed_failure_check(spec: ProblemSpec, xbar, ptype: str,
                             witness: dict) -> PseudoReport:
    """Exact check of a user-supplied failure witness tuple."""
    x = np.asarray(witness["x"], dtype=float).reshape(-1)
    yv = np.asarray(witness["ystar"], dtype=float).reshape(-1)
    umat = [np.asarray(u, dtype=float).reshape(-1) for u in witness["u"]]
    if len(umat) != spec.n_objectives:
        raise CertifyError("witness must choose one subgradient per objective")
    for j, uj in enumerate(umat):
        S, _ = objective_set(spec, j + 1, xbar, "hull", False)
        inside, res = S.contains(uj, 1e-9)
        if not inside:
            raise CertifyError(
                f"witness u[{j}] outside the subdifferential "
                f"(residual {res:.3g})")
    if not spec.cone.dual().contains(yv):
        raise CertifyError("witness ystar outside K+")
    nrm = spec.primal_norm(x - xbar)
    fbar = spec.fvec(xbar)
    margin = float(np.dot(yv, spec.fvec(x) - fbar)) + nrm * float(
        np.dot(yv, spec.theta))
    if ptype == "I":
        premise = margin < -1e-12
    else:
        premise = margin <= 1e-12 and nrm > 1e-12 and float(
            np.max(np.abs(yv))) > 1e-12
    if not premise:
        return PseudoReport(ptype, [SampleVerdict(x, "INCONCLUSIVE", 0,
                                                  "premise not active")], False)
    ustar = np.zeros(spec.dim)
    for yj, uj in zip(yv, umat):
        ustar = ustar + float(yj) * uj
    ytheta = float(np.dot(yv, spec.theta))
    rows = _constraint_rows(spec, xbar)
    con_base = {t: (base, verts) for t, (_, _, base, verts) in enumerate(rows)}
    rows_here = [t for t, (i, vsc, base, _) in enumerate(rows)
                 if eval_expr(spec.constraints[i - 1].expr, x, vsc)
                 <= base + 1e-12]
    cuts, lines = _witness_cuts(spec.dim, rows_here, con_base,
                                normal_cone(spec.omega, xbar))
    pball = primal_ball(spec.norm, spec.dim, spec.ball_facets)
    # minimize <u*, w> over all admissible w; failure iff optimum + r >= 0
    lp = LPBuilder()
    w_ids = lp.add_vars(spec.dim, free=True)
    lam = lp.add_vars(pball.nverts)
    for a in range(spec.dim):
        row = {w_ids[a]: 1.0}
        for t, vid in enumerate(lam):
            row[vid] = -nrm * pball.vertices[t, a]
        lp.add_eq(row, 0)
    lp.add_ub({vid: 1.0 for vid in lam}, 1)
    for cut in cuts:
        lp.add_ub({w_ids[a]: cut[a] for a in range(spec.dim)
                   if cut[a] != 0.0}, 0)
    for g in lines:
        lp.add_eq({w_ids[a]: g[a] for a in range(spec.dim) if g[a] != 0.0}, 0)
    lp.set_objective({w_ids[a]: ustar[a] for a in range(spec.dim)})
    res = lp.solve()
    if not res.feasible:
        raise CertifyError("admissible witness region empty")
    best = res.objective + nrm * ytheta
    if best >= -1e-12:
        v = SampleVerdict(x, "WITNESSED-FAILURE", 1,
                          f"min <u*,w> + r = {best:.3g} >= 0 for all w")
        return PseudoReport(ptype, [v], False, lp_optimum=best)
    v = SampleVerdict(x, "INCONCLUSIVE", 1,
                      "a witness direction exists for this tuple")
    return PseudoReport(ptype, [v], False, lp_optimum=best)
