"""Constraint qualification, robust approximate KKT certificates, the fuzzy
necessary-condition demonstrator and generalized pseudo-convexity testing.

Certificates follow the worked problems' arithmetic: the scalarized
objective term is the weighted sum of per-objective subgradient choices,
constraint terms come from the sup-rule hulls, the ball term is scaled by
<y*, theta>, and everything must cancel against a normal-cone element.
The CQ, the KKT search and the fuzzy inclusion each state that question
as parts and multiplier rows to setcalc.zero_in_sum, which builds the LP.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from .funcdsl import eval_expr, eval_on_grid
from .lp import LPBuilder
from .robustfeas import (
    CELLS_LIMIT,
    ProblemSpec,
    Psi,
    compute_active_sets,
    feasible_active_sets,
)
from .setcalc import (
    DUAL_NORM,
    MEMBERSHIP_TOL,
    STATIONARITY,
    PolytopeSet,
    check_selections,
    dual_ball,
    hull,
    norm_grid,
    norm_value,
    normal_cone,
    point_in_cone_residual,
    scale,
    zero_in_sum,
)
from .subdiff import Scalarization, constraint_set, direct_subdiff, \
    limiting_subdiff, objective_set

COMPLEMENTARITY_TOL = 1e-8
TIGHT_TOL = 1e-9  # a fuzzy merit branch this close to psi is tight
EPS_STRICT = 1e-7
EPS_YSTAR_MIN = 1e-6
KKT_TOL = 1e-9  # the stationarity residual a certificate may leave
# y* per block of the sweep's (y*, sample) temporaries, which bounds them
_BLOCK = 64


class CertifyError(Exception):
    pass


# ---------------------------------------------------------------------------
# Constraint qualification
# ---------------------------------------------------------------------------

class CQReport(NamedTuple):
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
        S, origin = constraint_set(spec, i, xbar, acts, use_fixtures)
        prov[spec.constraints[i - 1].name] = origin
        res = zero_in_sum([S], N)
        ok = not res.sat
        holds = holds and ok
        entry = {"i": i, "zero_excluded": ok}
        if res.sat:
            entry["witness"] = res.witness_points([S])
        per.append(entry)
    return CQReport(holds, acts.index_set, per, prov)


# ---------------------------------------------------------------------------
# KKT certificates
# ---------------------------------------------------------------------------

class KKTCertificate(NamedTuple):
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


class KKTCheckReport(NamedTuple):
    valid: bool
    residual: float
    checks: list[dict]
    provenance: dict[str, str]


def multiplier_checks(spec: ProblemSpec, ystar: np.ndarray,
                      mu: np.ndarray) -> tuple[bool, list[dict]]:
    """Whether y* lies in K+ \\ {0} and mu >= 0, and those two report
    checks."""
    ok_y = bool(spec.cone.contains(ystar)
                and float(np.max(np.abs(ystar))) > 1e-12)
    ok_mu = bool(np.all(mu >= -1e-12))
    return ok_y and ok_mu, [{"name": "ystar_in_Kplus_nonzero", "ok": ok_y},
                            {"name": "mu_nonnegative", "ok": ok_mu}]


def check_kkt(spec: ProblemSpec, xbar, cert: KKTCertificate,
              tol: float = KKT_TOL, mode: str = "hull",
              use_fixtures: bool = False) -> KKTCheckReport:
    """Verify every membership and the residual of a certificate."""
    xbar = np.asarray(xbar, dtype=float).reshape(-1)
    p, n, d = spec.n_objectives, spec.n_constraints, spec.dim
    if (len(cert.u) != p or len(cert.v) != n or cert.ystar.shape[0] != p
            or cert.mu.shape[0] != n or cert.bstar.shape[0] != d):
        raise CertifyError("certificate fields dimensionally inconsistent")
    mult_ok, checks = multiplier_checks(spec, cert.ystar, cert.mu)
    prov: dict[str, str] = {}

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
        inside, res = S.contains(cert.u[j - 1])
        memb_ok = memb_ok and inside
        checks.append({"name": f"u_in_subdiff_{spec.objective_names[j-1]}",
                       "ok": bool(inside), "residual": res})
    for i in range(1, n + 1):
        S, origin = constraint_set(spec, i, xbar, acts, use_fixtures)
        prov[spec.constraints[i - 1].name] = origin
        inside, res = S.contains(cert.v[i - 1])
        memb_ok = memb_ok and inside
        checks.append({"name": f"v_in_suprule_{spec.constraints[i-1].name}",
                       "ok": bool(inside), "residual": res})

    bnorm = norm_value(DUAL_NORM[spec.norm], cert.bstar)
    ok_b = bnorm <= 1.0 + 1e-12
    checks.append({"name": "bstar_in_dual_ball", "ok": bool(ok_b),
                   "dual_norm": bnorm})

    N = normal_cone(spec.omega, xbar)
    ares = point_in_cone_residual(cert.astar, N)
    ok_a = ares <= MEMBERSHIP_TOL
    checks.append({"name": "astar_in_normal_cone", "ok": bool(ok_a),
                   "residual": ares})

    resid = cert.residual(spec.theta)
    ok_r = resid <= tol
    checks.append({"name": "stationarity_residual", "ok": bool(ok_r),
                   "residual": resid, "tol": tol})

    valid = bool(mult_ok and comp_ok and memb_ok and ok_b and ok_a and ok_r)
    return KKTCheckReport(valid, resid, checks, prov)


class KKTSearchReport(NamedTuple):
    certificate: KKTCertificate | None  # None: no certificate found
    recheck: KKTCheckReport | None
    active_indices: tuple[int, ...]
    selections_tried: int
    provenance: dict[str, str]


def search_kkt(spec: ProblemSpec, xbar, mode: str = "limiting",
               use_fixtures: bool = False,
               tol: float = KKT_TOL) -> KKTSearchReport:
    """Search for a robust approximate KKT certificate at xbar, one
    zero_in_sum LP per choice of a component of each objective's set.

    K is a sign orthant, so the substitution y*_j = sigma_j s_j makes the
    whole inclusion linear in vertex weights whose group totals are the
    multipliers: the parts are the sigma_j-scaled objective sets, the
    active constraint sets and the dual ball, whose total is <y*, theta>.
    The 1-norm normalization sum(s) + sum(mu) = 1 plus
    sum(s) >= EPS_YSTAR_MIN pins the scale and forbids y* = 0.
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
    check_selections(obj_sets, CertifyError)
    sigma = np.asarray(spec.cone.pattern, dtype=float)
    parts = [scale(S, s) for S, s in zip(obj_sets, sigma)]
    for i in actives:
        S, origin = constraint_set(spec, i, xbar, acts, use_fixtures)
        prov[spec.constraints[i - 1].name] = origin
        parts.append(S if S.ncomponents == 1 else PolytopeSet([hull(S)]))
    parts.append(PolytopeSet([dual_ball(spec.norm, d, spec.ball_facets)]))
    N = normal_cone(spec.omega, xbar)

    # ball total equals <y*, theta> = sum_j sigma_j theta_j s_j
    ball_row = {len(parts) - 1: 1.0}
    ball_row.update((j, -sigma[j] * spec.theta[j]) for j in range(p))
    res = zero_in_sum(parts, N, [
        STATIONARITY, (ball_row, 0),
        (dict.fromkeys(range(len(parts) - 1), 1.0), 1)],
        floor=(dict.fromkeys(range(p), 1.0), EPS_YSTAR_MIN))
    if not res.sat:
        return KKTSearchReport(None, None, tuple(actives), res.tried, prov)

    # the certificate from the group totals and weighted vertices; the
    # objective parts are scaled by sigma_j, so u_j divides by y*_j
    points = res.witness_points(parts)
    totals = [float(np.sum(w)) for w in res.weights]
    ystar = sigma * totals[:p]
    u = [points[j] / ystar[j] if totals[j] > 1e-15 else
         obj_sets[j].components[res.selection[j]].vertices[0].copy()
         for j in range(p)]
    mu = np.zeros(n)
    vsel = []
    vbar = []
    for i in range(1, n + 1):
        if i in actives:
            g = p + actives.index(i)
            mu[i - 1] = totals[g]
            vsel.append(points[g] / totals[g] if totals[g] > 1e-15
                        else parts[g].components[0].vertices[0].copy())
        else:
            S, origin = constraint_set(spec, i, xbar, acts, use_fixtures)
            prov[spec.constraints[i - 1].name] = origin
            vsel.append(S.all_vertices()[0].copy())
        scen = acts.scenarios[i - 1]
        vbar.append(scen[0] if scen else 0.0)
    radius = totals[-1]
    bstar = points[-1] / radius if radius > 1e-15 else np.zeros(d)
    astar = res.cone_weights @ N
    cert = KKTCertificate(ystar, mu, u, vsel, vbar, bstar, astar)
    recheck = check_kkt(spec, xbar, cert, tol, mode, use_fixtures)
    return KKTSearchReport(cert, recheck, tuple(actives), res.tried, prov)


# ---------------------------------------------------------------------------
# Fuzzy condition demonstrator
# ---------------------------------------------------------------------------

class FuzzyKKTWitness(NamedTuple):
    x_eta: np.ndarray
    lam: tuple[float, float]
    mu: np.ndarray
    scenarios: tuple[float, ...]
    inclusion_residual: float
    comp_residual_obj: float
    comp_residual_con: float
    normalization: float


class FuzzyReport(NamedTuple):
    witness: FuzzyKKTWitness | None  # None: no witness found
    diagnostic: str = ""


def fuzzy_kkt_demo(spec: ProblemSpec, xbar, ystar, eta: float,
                   radius: float | None = None, grid_n: int = 81,
                   mode: str = "limiting") -> FuzzyReport:
    """Locate an Ekeland-style point and solve the perturbed inclusion.

    The merit function psi is grid-minimized over the ground set within the
    search radius; the inclusion is then a zero_in_sum LP at the located
    point, one per component of the scalarized set, with ball radius
    <y*, theta>/eta and branch gates matching the two complementarity
    relations.
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
        return FuzzyReport(None, "grid resolution coarser than eta; no "
                           "search point")
    merit = Psi(spec, ystar, xbar)
    axes = [np.linspace(xbar[k] - R, xbar[k] + R, grid_n)
            for k in range(spec.dim)]
    mesh = np.meshgrid(*axes, indexing="ij")
    X = np.vstack([m.ravel() for m in mesh])
    dist = norm_grid(spec.norm, X - xbar[:, None])
    keep = (dist <= eta + 1e-12) & spec.omega.contains_grid(X)
    if not np.any(keep):
        return FuzzyReport(None, "no admissible grid point within eta")
    cells, keys = merit.candidate_keys(X[:, keep])
    Xc, dc = X[:, keep][:, cells], dist[keep][cells]
    order = np.lexsort((*(Xc[k] for k in reversed(range(spec.dim))), dc,
                        keys))
    x_eta = Xc[:, order[0]].copy()

    acts = compute_active_sets(spec, x_eta)
    f_branch = float(np.dot(ystar, spec.fvec(x_eta) - spec.fvec(xbar)
                            + spec.theta))
    psi_val = max(f_branch, acts.phi)
    tight1 = f_branch >= psi_val - TIGHT_TOL
    tight2 = acts.phi >= psi_val - TIGHT_TOL

    # parts: the branch weights lam_f and lam_g, as points {0} that add
    # only their totals, the scalarized set, the active constraints'
    # sup-rule hulls (one component each, as no fixture is read), the ball
    zero = PolytopeSet.singleton(np.zeros(spec.dim))
    parts = [zero, zero, direct_subdiff(ystar, spec.objectives, x_eta, mode,
                                        spec.kink_tol).set]
    idx = list(acts.index_set)
    scen_used = {}
    for i in idx:
        parts.append(constraint_set(spec, i, x_eta, acts)[0])
        scen = acts.scenarios[i - 1]
        scen_used[i] = scen[0] if scen else 0.0
    parts.append(PolytopeSet([dual_ball(spec.norm, spec.dim,
                                        spec.ball_facets)]))
    N = normal_cone(spec.omega, x_eta)
    ytheta = float(np.dot(ystar, spec.theta))
    # lam_f = t_f, lam_g = sum(t_con), t_ball = <y*, theta>/eta,
    # lam_f + lam_g = 1, and a branch that is not tight has weight 0
    rows = [({0: -1.0, 2: 1.0}, 0),
            ({1: -1.0, **dict.fromkeys(range(3, len(parts) - 1), 1.0)}, 0),
            ({len(parts) - 1: 1.0}, ytheta / eta), STATIONARITY,
            ({0: 1.0, 1: 1.0}, 1)]
    if not tight1:
        rows.append(({0: 1.0}, 0))
    if not tight2 or not idx:
        rows.append(({1: 1.0}, 0))
    res = zero_in_sum(parts, N, rows)
    if not res.sat:
        return FuzzyReport(None, "inclusion LP unsatisfiable at x_eta")
    lam1, a2, _, *con_totals = (float(np.sum(w)) for w in res.weights[:-1])
    mu_bar = np.zeros(spec.n_constraints)
    if a2 > 1e-15:
        for i, t in zip(idx, con_totals):
            mu_bar[i - 1] = t / a2
    elif idx:
        mu_bar[idx[0] - 1] = 1.0
    lam2 = lam1 * float(np.sum(np.abs(ystar))) + float(np.sum(mu_bar))
    mu = mu_bar / lam2
    incl_res = float(np.linalg.norm(sum(res.witness_points(parts)[2:])
                                    + res.cone_weights @ N))
    comp1 = (lam1 / lam2) * (f_branch - psi_val)
    comp2 = 0.0
    for i in idx:
        gi = eval_expr(spec.constraints[i - 1].expr, x_eta,
                       scen_used[i] if spec.constraints[i - 1].expr.has_v
                       else None)
        comp2 = max(comp2, abs((1.0 - lam1) * mu[i - 1] * (gi - psi_val)))
    normalization = (lam1 / lam2) * float(np.sum(np.abs(ystar))) + float(
        np.sum(np.abs(mu)))
    witness = FuzzyKKTWitness(
        x_eta, (lam1, lam2), mu,
        tuple(scen_used.get(i, 0.0) for i in range(1, spec.n_constraints + 1)),
        incl_res, comp1, comp2, normalization)
    return FuzzyReport(witness)


# ---------------------------------------------------------------------------
# Generalized pseudo-convexity testing
# ---------------------------------------------------------------------------

class PseudoReport(NamedTuple):
    # one per sample, in sample order: VERIFIED-CANDIDATE-W |
    # VERIFIED-COMMON-W | INCONCLUSIVE | WITNESSED-FAILURE
    verdicts: np.ndarray
    lp_optimum: float | None = None   # explicit-witness path only


def ystar_grid(spec: ProblemSpec, resolution: int) -> np.ndarray:
    """Interior midpoint grid on the l1-normalized cross-section of K+.

    Midpoint (open) parametrization keeps degenerate boundary rays such as
    single-objective unit vectors off the grid; those edges are exercised
    through explicit witnesses instead.  The weights are a stick-breaking
    grid over the simplex, on the cone's generators, the signed unit
    vectors.
    """
    sign = np.asarray(spec.cone.pattern, dtype=float)
    m = sign.size
    if m == 1:
        return sign[None] / np.abs(sign[0])
    ticks = (np.arange(resolution) + 0.5) / resolution
    T = np.stack(np.meshgrid(*[ticks] * (m - 1), indexing="ij"),
                 axis=-1).reshape(-1, m - 1)
    W = np.empty((T.shape[0], m))
    remaining = np.ones(T.shape[0])
    for k in range(m - 1):
        W[:, k] = remaining * T[:, k]
        remaining = remaining * (1.0 - T[:, k])
    W[:, m - 1] = remaining
    Y = W * sign
    l1 = np.sum(np.abs(Y), axis=1)
    return Y[l1 > 1e-12] / l1[l1 > 1e-12, None]


def ystar_grid_size(spec: ProblemSpec, resolution: int) -> int:
    """The number of points ystar_grid visits, without building them."""
    m = spec.n_objectives
    return 1 if m == 1 else resolution ** (m - 1)


def _constraint_rows(spec: ProblemSpec, xbar):
    """Per (constraint, active scenario): scenario, base value, vertex rows."""
    acts = compute_active_sets(spec, xbar)
    rows = []
    for i in range(1, spec.n_constraints + 1):
        con = spec.constraints[i - 1]
        scens = acts.scenarios[i - 1] if con.expr.has_v else [None]
        for vsc in scens:
            base = eval_expr(con.expr, xbar, vsc)
            sd = limiting_subdiff(con.expr, xbar, vsc, "limiting",
                                  spec.kink_tol)
            rows.append((i, vsc, base, sd.set.all_vertices()))
    return rows


def _checked_point(spec: ProblemSpec, xbar, ptype: str) -> np.ndarray:
    """xbar as a float vector, refused unless ptype is I or II and xbar
    lies in the ground set."""
    if ptype not in ("I", "II"):
        raise CertifyError("type must be 'I' or 'II'")
    xbar = np.asarray(xbar, dtype=float).reshape(-1)
    if not spec.omega.contains(xbar):
        raise CertifyError("xbar must lie in the ground set")
    return xbar


def pseudoconvex_test(spec: ProblemSpec, xbar, ptype: str, region,
                      grid: int = 21, y_resolution: int = 24,
                      mode: str = "limiting") -> PseudoReport:
    """Sampled sufficient test of type I/II pseudo convexity at xbar, on
    a grid x grid raster of the planar region (a1, b1, a2, b2).

    For every sample x and every y* on the dual-cone grid whose scalarized
    premise holds, a witness direction w is sought: first the candidate
    w = x - xbar, then the max-margin w per convex component of the
    scalarized subdifferential (the definition lets w depend on the
    subgradient choice), found by planar geometry.  INCONCLUSIVE never
    asserts failure; failures come only from an explicit witness tuple,
    checked exactly by witnessed_failure_check.
    """
    xbar = _checked_point(spec, xbar, ptype)
    if region is None:
        raise CertifyError("provide a sampling region")
    if spec.dim != 2:
        raise CertifyError("grid sampling requires dimension 2")
    cells = ystar_grid_size(spec, y_resolution) * grid ** 2
    if cells > CELLS_LIMIT:
        raise CertifyError(
            f"y_resolution {y_resolution} and grid {grid} make {cells} "
            f"premise cells, over the limit {CELLS_LIMIT}")
    a1, b1, a2, b2 = [float(t) for t in region]
    g1, g2 = np.meshgrid(np.linspace(a1, b1, grid),
                         np.linspace(a2, b2, grid), indexing="ij")
    samples = np.vstack([g1.ravel(), g2.ravel()]).T
    samples = samples[spec.omega.contains_grid(samples.T)]

    ys = ystar_grid(spec, y_resolution)
    fbar = spec.fvec(xbar)
    F = spec.fvec_grid(samples.T)          # (p, N)
    D = samples.T - xbar[:, None]
    norms = norm_grid(spec.norm, D)        # (N,)
    ytheta_all = ys @ spec.theta
    # premise margins m(x, y) for the whole grid at once, the norm term
    # added a block of y* at a time, so that no (M, N) array of it is kept
    G = ys @ (F - fbar[:, None])
    for lo in range(0, G.shape[0], _BLOCK):
        G[lo:lo + _BLOCK] += ytheta_all[lo:lo + _BLOCK, None] * norms
    if ptype == "I":
        # the premise is a strict inequality; EPS_STRICT is the margin used
        # for strict inequalities throughout
        active = G < -EPS_STRICT
    else:
        active = G <= 1e-12
    del G  # the blocks below read active, not G
    active[:, norms <= 1e-12] = False

    con_rows = _constraint_rows(spec, xbar)
    T = len(con_rows)
    con_prem = np.zeros((T, samples.shape[0]), dtype=bool)
    row_cand_ok = np.ones((T, samples.shape[0]), dtype=bool)
    for t, (i, vsc, base, verts) in enumerate(con_rows):
        e = spec.constraints[i - 1].expr
        vals = eval_on_grid(e, samples.T, vsc)
        undefined = np.flatnonzero(~np.isfinite(vals))
        if undefined.size:  # each raises its DomainError, in sample order
            vals = vals.copy()
            vals[undefined] = [eval_expr(e, samples[c], vsc)
                               for c in undefined.tolist()]
        con_prem[t] = vals <= base + 1e-12
        if verts.size:
            row_cand_ok[t] = np.max(verts @ D, axis=0) <= 1e-12
    # candidate w = x - xbar against premise-holding constraint rows
    cand_g_ok = ~np.any(con_prem & ~row_cand_ok, axis=0)

    N = normal_cone(spec.omega, xbar)
    cone_ok = np.ones(samples.shape[0], dtype=bool)
    for g in N:
        cone_ok &= g @ D <= 1e-12

    cand_ok = cand_g_ok & cone_ok
    # one id per distinct premise-row mask (column of con_prem)
    masks, mask_id = np.unique(con_prem.T, axis=0, return_inverse=True)
    mask_id = mask_id.reshape(-1)
    walls = [_witness_cuts(spec.dim, np.flatnonzero(m).tolist(), con_rows, N)
             for m in masks]
    geometry = None  # the planar geometry, built when a margin first needs it
    scalarize = Scalarization(spec.objectives, xbar, mode, spec.kink_tol)

    # A sample fails at the first y* (in index order) with neither the
    # candidate w = x - xbar nor a witness margin >= EPS_STRICT.  The
    # margin problem is positively homogeneous in ||x - xbar||, so one
    # normalized margin per (y*, mask) serves every sample of that mask.
    # So the sets of every y* with an active sample come in groups of one
    # shape, the margins in one stack per group, and the failures are read
    # off afterwards.  A refused y* raises only where a loop over the y* in
    # index order meets it: with an active sample not failed before it.
    M, n = active.shape
    rows = np.flatnonzero(active.any(axis=1))
    left = np.zeros_like(active)  # active, and the candidate w is refused
    margin = np.full((M, len(masks)), np.nan)
    refused = {}  # y* index: the exception its scalarization raises
    for sub, comps in scalarize.groups(ys[rows]):
        sub = rows[sub]
        if isinstance(comps, Exception):
            refused.update(dict.fromkeys(sub.tolist(), comps))
            continue
        V = np.concatenate(comps, axis=1)  # every vertex of each set
        for lo in range(0, sub.size, _BLOCK):
            r = sub[lo:lo + _BLOCK]
            top = (V[lo:lo + _BLOCK] @ D).max(axis=1)
            left[r] = active[r] & ~(cand_ok & (
                top + ytheta_all[r, None] * norms <= -1e-12))
        need = left[sub].any(axis=1)
        if need.any():
            geometry = geometry or _SweepGeometry(spec.norm, walls)
            margin[sub[need]] = geometry.margins([U[need] for U in comps],
                                                 ytheta_all[sub[need]])
    fail = np.zeros_like(active)
    for lo in range(0, M, _BLOCK):
        # a margin not computed is NaN and fails no test, as is -inf * 0
        # at the sample x = xbar, whose premise never holds
        with np.errstate(invalid="ignore"):
            fail[lo:lo + _BLOCK] = left[lo:lo + _BLOCK] & (
                margin[lo:lo + _BLOCK, mask_id] * norms < EPS_STRICT)
    first = np.where(fail.any(axis=0), fail.argmax(axis=0), M)
    for r in sorted(refused):
        if (active[r] & (first > r)).any():  # not failed before y* r
            raise refused[r]
    common = (left & (np.arange(M)[:, None] <= first)).any(axis=0)
    return PseudoReport(np.where(first < M, "INCONCLUSIVE", np.where(
        common, "VERIFIED-COMMON-W", "VERIFIED-CANDIDATE-W")))


def _witness_cuts(d: int, rows_here, con_rows, N: np.ndarray) -> np.ndarray:
    """The rows a with <a, w> <= 0 for an admissible w: the nonzero vertices
    of the premise-holding rows of _constraint_rows, then the normal cone's
    generators N."""
    cuts = [vert for t in rows_here for vert in con_rows[t][3]
            if np.any(vert != 0.0)]
    cuts.extend(N)
    return np.array(cuts).reshape(-1, d)


_CUT_TOL = 1e-12


class _SweepGeometry:
    """The planar witness margins of one sweep, for all y* at once.

    w ranges over the unit ball of the norm clipped to the wedge of a
    mask's walls <a, w> <= 0, and min_u -<u, w> is linear between the tie
    lines <u_i - u_j, w> = 0, so the optimum is the origin or the boundary
    point of a ball vertex, wall ray or tie ray.  A norm is the gauge of
    its unit ball (Rockafellar, Convex Analysis, 1970, sec. 15): the ray
    along r leaves the ball at r/||r||.  The l2 ball has no vertex, and
    its candidates add the exact directions -u of the vertices u: between
    neighbouring candidates the objective is one -<u_i, w>, which peaks on
    that arc at an end or at -u_i/|u_i|, so the best is the disk's margin.
    """

    def __init__(self, norm: str, walls: list):
        self.norm = norm
        # a mask's walls are its _witness_cuts
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
        # the rays of every row: the ball's vertices, by angle, and walls'
        base = dual_ball(DUAL_NORM[norm], 2).vertices if norm != "l2" \
            else np.zeros((0, 2))
        base = base[np.argsort(np.arctan2(base[:, 1], base[:, 0]))]
        known = np.vstack([base, perp])
        self.known = (known, np.hstack([self.cut_ok(base), perp_ok]),
                      self.gauge(known))

    def gauge(self, rays: np.ndarray) -> np.ndarray:
        """||r|| of the rays r along the last axis, in l2 by np.hypot: the
        square of a tiny tie ray underflows."""
        D = np.moveaxis(rays, -1, 0)
        return np.hypot(*D) if self.norm == "l2" else norm_grid(self.norm, D)

    def cut_ok(self, rays: np.ndarray) -> np.ndarray:
        """(masks, rays): does <a, r> <= _CUT_TOL |a| |r| for every wall a."""
        slack = self.walls @ rays.T
        bad = slack > _CUT_TOL * np.outer(self.wall_norms,
                                          np.linalg.norm(rays, axis=1))
        return ~(self.wall_owner @ bad)

    def margins(self, comps: list, ytheta: np.ndarray) -> np.ndarray:
        """(rows, masks): each mask's witness margin at ||x - xbar|| = 1 for
        each row's component slots (rows, k, 2): the least over them of the
        largest delta >= 0 with <u, w> + ytheta <= -delta for every vertex
        u, -inf if one has none."""
        best = np.full((ytheta.size, self.wall_owner.shape[0]), math.inf)
        for U in comps:
            m = self._component(U, ytheta)
            best = np.minimum(best, np.where(m < 0.0, -math.inf, m))
        return best

    def _component(self, U: np.ndarray, ytheta: np.ndarray) -> np.ndarray:
        """Each mask's best value over its rays, per row of one slot U."""
        R, k, _ = U.shape
        i, j = np.triu_indices(k, 1)
        t = U[:, i] - U[:, j]
        ties = np.stack([-t[..., 1], t[..., 0]], axis=2)
        fresh = np.concatenate([ties, -ties], axis=1)
        gauge = self.gauge(fresh)
        if self.norm == "l2":  # the directions -u; a zero u's is the origin
            fresh = np.concatenate([-U, fresh], axis=1)
            nu = self.gauge(U)
            gauge = np.concatenate([np.where(nu > 0.0, nu, 1.0), gauge], 1)
        known, known_ok, known_gauge = self.known
        rays = np.concatenate([np.broadcast_to(known, (R, *known.shape)),
                               fresh], axis=1)
        gauge = np.concatenate([np.broadcast_to(known_gauge, (
            R, known_gauge.size)), gauge], axis=1)
        fresh_ok = self.cut_ok(fresh.reshape(-1, 2)).reshape(
            known_ok.shape[0], *fresh.shape[:2]).transpose(1, 0, 2)
        return self._best(rays, gauge, U, ytheta, known_ok, fresh_ok)

    @staticmethod
    def _best(rays, gauge, U, ytheta, shared, own) -> np.ndarray:
        """(rows, masks): the best margin over the rays each mask admits,
        the first rays as shared (masks, rays) says, the others as own
        (rows, masks, rays)."""
        # the ray along r leaves the ball at r / gauge(r)
        W = np.empty_like(rays)
        for c in range(2):
            np.divide(rays[..., c], gauge, out=W[..., c])
        vals = -functools.reduce(np.maximum, np.moveaxis(
            W @ U.transpose(0, 2, 1), -1, 0)) - ytheta[:, None]
        best = np.stack([vals[:, :shared.shape[1]].compress(ok, axis=1).max(
            axis=1, initial=-math.inf) for ok in shared], axis=1)
        for c in range(own.shape[2]):
            best = np.maximum(best, np.where(
                own[..., c], vals[:, None, shared.shape[1] + c], -math.inf))
        # the origin, w = 0, is always admissible
        return np.maximum(best, -ytheta[:, None])


def witnessed_failure_check(spec: ProblemSpec, xbar, ptype: str,
                            witness: dict, mode: str,
                            use_fixtures: bool) -> PseudoReport:
    """Exact check of a user-supplied failure witness tuple (x, y*, u), in
    any dimension: does no admissible w have <u*, w> + r < 0?  Each u_j
    must lie in objective j's set of the given mode, or its fixture."""
    xbar = _checked_point(spec, xbar, ptype)
    for con in spec.constraints if use_fixtures else ():
        if spec.fixture_for(con.name, xbar) is not None:  # not read here
            raise CertifyError("the witness check of the constraints reads no"
                               " fixture, but fixtures are asked for and "
                               f"{con.name} has one at this point")
    x = np.asarray(witness["x"], dtype=float).reshape(-1)
    yv = np.asarray(witness["ystar"], dtype=float).reshape(-1)
    umat = [np.asarray(u, dtype=float).reshape(-1) for u in witness["u"]]
    if len(umat) != spec.n_objectives:
        raise CertifyError("witness must choose one subgradient per objective")
    for j, uj in enumerate(umat):
        S, _ = objective_set(spec, j + 1, xbar, mode, use_fixtures)
        inside, res = S.contains(uj)
        if not inside:
            raise CertifyError(
                f"witness u[{j}] outside the subdifferential "
                f"(residual {res:.3g})")
    if not spec.cone.contains(yv):
        raise CertifyError("witness ystar outside K+")
    nrm = norm_value(spec.norm, x - xbar)
    fbar = spec.fvec(xbar)
    margin = float(np.dot(yv, spec.fvec(x) - fbar)) + nrm * float(
        np.dot(yv, spec.theta))
    if ptype == "I":
        premise = margin < -1e-12
    else:
        premise = margin <= 1e-12 and nrm > 1e-12 and float(
            np.max(np.abs(yv))) > 1e-12
    if not premise:
        return PseudoReport(np.array(["INCONCLUSIVE"]))
    ustar = np.zeros(spec.dim)
    for yj, uj in zip(yv, umat):
        ustar = ustar + float(yj) * uj
    ytheta = float(np.dot(yv, spec.theta))
    rows = _constraint_rows(spec, xbar)
    rows_here = [t for t, (i, vsc, base, _) in enumerate(rows)
                 if eval_expr(spec.constraints[i - 1].expr, x, vsc)
                 <= base + 1e-12]
    cuts = _witness_cuts(spec.dim, rows_here, rows,
                         normal_cone(spec.omega, xbar))
    pball = dual_ball(DUAL_NORM[spec.norm], spec.dim, spec.ball_facets)
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
    lp.set_objective({w_ids[a]: ustar[a] for a in range(spec.dim)})
    res = lp.solve()
    if not res.feasible:
        raise CertifyError("admissible witness region empty")
    best = res.objective + nrm * ytheta
    return PseudoReport(np.array(["WITNESSED-FAILURE" if best >= -1e-12
                                  else "INCONCLUSIVE"]), lp_optimum=best)
