"""The certificate LPs as they stood before ``setcalc.zero_in_sum``
assembled them all: ``zero_in_sum``, ``search_kkt`` and ``fuzzy_kkt_demo``
each building its own LP, and the two residual LPs each its own.  Kept
verbatim as the oracle of ``tests/test_cert_oracle.py``, which asserts
that the library gives the same verdicts, certificates, witnesses and
residuals; only the fixture rule follows the library's: a set is the
spec's fixture where it has one, and ``fuzzy_kkt_demo`` reads none.  Its
scalarized set is the tree reference's, ``sweep_oracle.direct_subdiff``.

``dual_ball`` is the ball as one polytope, as these LPs took it before
``setcalc.dual_ball`` gave the l1 norm's box as its d edge segments: the
box by its 2^d corners.  Kept verbatim as the reference of the summands
(test_cert_oracle.py).
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

from robustkkt.certify import (
    EPS_YSTAR_MIN,
    KKT_TOL,
    TIGHT_TOL,
    CertifyError,
    FuzzyKKTWitness,
    FuzzyReport,
    KKTCertificate,
    KKTSearchReport,
    check_kkt,
)
from robustkkt.funcdsl import eval_expr
from robustkkt.lp import LPBuilder
from robustkkt.robustfeas import (
    ProblemSpec,
    Psi,
    compute_active_sets,
    feasible_active_sets,
)
from robustkkt.setcalc import (
    DimensionMismatch,
    Polytope,
    PolytopeSet,
    SetCalcError,
    ZeroInSumResult,
    _regular_polygon,
    check_selections,
    norm_grid,
    normal_cone,
)
from robustkkt.subdiff import constraint_set, objective_set, sup_rule

from sweep_oracle import direct_subdiff


@lru_cache(maxsize=16)
def dual_ball(norm: str, d: int, m: int = 64) -> Polytope:
    """Unit ball of the dual norm as a polytope, built once per process
    for each (norm, d, m) and shared.

    l1 and linf primal norms give exact boxes/cross-polytopes.  The l2 dual
    ball is approximated by an inscribed polytope, so certificates found
    with it stay valid.
    """
    if d < 1:
        raise SetCalcError("dimension must be >= 1")
    if norm == "l1":
        corners = np.array(list(itertools.product((-1.0, 1.0), repeat=d)))
        return Polytope(corners)
    if norm == "linf":
        return Polytope(np.vstack([np.eye(d), -np.eye(d)]))
    if norm != "l2":
        raise SetCalcError(f"unsupported norm {norm!r}")
    if d == 1:
        return Polytope([[-1.0], [1.0]])
    if d == 2:
        if m < 8:
            raise SetCalcError("l2 ball needs at least 8 facets")
        return Polytope(_regular_polygon(m))
    if d == 3:
        dirs = []
        for pattern in ((1, 0, 0), (1, 1, 0), (1, 1, 1)):
            for perm in set(itertools.permutations(pattern)):
                base = np.asarray(perm, dtype=float)
                base /= np.linalg.norm(base)
                for signs in itertools.product((-1.0, 1.0), repeat=3):
                    vec = base * np.asarray(signs)
                    dirs.append(vec)
        return Polytope(np.array(dirs))
    raise SetCalcError("l2 dual ball unsupported above dimension 3")


def zero_in_sum(parts: list[PolytopeSet], cone: np.ndarray) -> ZeroInSumResult:
    """Decide 0 in sum(parts) + cone, exactly over component selections;
    cone is the (k, d) array of its generators.

    For each choice of one convex component per union part an LP looks for
    convex weights and nonnegative cone coefficients summing to zero; the
    first satisfiable selection is returned.
    """
    if not parts:
        raise SetCalcError("zero_in_sum needs at least one part")
    d = parts[0].dim
    for p in parts:
        if p.dim != d:
            raise DimensionMismatch("zero_in_sum dimension mismatch")
    if cone.shape[1] != d:
        raise DimensionMismatch("cone dimension mismatch")
    check_selections(parts)
    for selection in itertools.product(*(range(p.ncomponents) for p in parts)):
        lp = LPBuilder()
        groups = []
        for p, part in enumerate(parts):
            comp = part.components[selection[p]]
            ids = lp.add_vars(comp.nverts)
            groups.append((ids, comp.vertices))
            lp.add_eq({i: 1 for i in ids}, 1)
        _add_stationarity_rows(lp, groups, cone)
        res = lp.solve()
        if res.feasible:
            weights = [res.values[np.asarray(ids)] for ids, _ in groups]
            return ZeroInSumResult(True, selection, weights)
    return ZeroInSumResult(False)


def _add_stationarity_rows(lp: LPBuilder, groups,
                           cone: np.ndarray) -> list[int]:
    """Add to lp the rows sum_groups V^T w + sum_k c_k g_k = 0, one per
    coordinate, for the (ids, V) groups of vertex weights w and new
    nonnegative coefficients c of the cone's generators g_k, the rows of
    cone; return the ids of c, created just before the rows."""
    cids = lp.add_vars(cone.shape[0])
    groups = [*groups, (cids, cone)]
    for a in range(cone.shape[1]):
        row = {}
        for ids, V in groups:
            for vid, coef in zip(ids, V[:, a].tolist()):
                if coef != 0.0:
                    row[vid] = coef
        lp.add_eq(row, 0)
    return cids


def search_kkt(spec: ProblemSpec, xbar, mode: str = "limiting",
               tol: float = KKT_TOL) -> KKTSearchReport:
    """One-LP search for a robust approximate KKT certificate at xbar.

    K is a sign orthant, so the substitution y*_j = sigma_j s_j makes the
    whole inclusion linear in vertex weights whose group totals are the
    multipliers; the 1-norm normalization sum(s) + sum(mu) = 1 plus
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
        S, origin = objective_set(spec, j, xbar, mode)
        prov[spec.objective_names[j - 1]] = origin
        obj_sets.append(S)
    check_selections(obj_sets, CertifyError)
    con_sets = {}
    for i in actives:
        S, origin = constraint_set(spec, i, xbar, acts)
        prov[spec.constraints[i - 1].name] = origin
        con_sets[i] = S.components[0] if S.ncomponents == 1 else Polytope(
            S.all_vertices(), reduce=True)
    ball = dual_ball(spec.norm, d, spec.ball_facets)
    N = normal_cone(spec.omega, xbar)

    sigma = np.asarray(spec.cone.pattern, dtype=float)
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
        lp.add_ub(dict.fromkeys(s_ids, -1.0), -EPS_YSTAR_MIN)
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
                S, origin = constraint_set(spec, i, xbar, acts)
                prov[spec.constraints[i - 1].name] = origin
                vsel.append(S.all_vertices()[0].copy())
            scen = acts.scenarios[i - 1]
            vbar.append(scen[0] if scen else 0.0)
        wb = res.values[np.asarray(ball_ids)]
        radius = float(np.sum(wb))
        bstar = (wb @ ball.vertices / radius) if radius > 1e-15 else np.zeros(d)
        astar = np.zeros(d)
        if cone_ids:
            astar = res.values[np.asarray(cone_ids)] @ N
        cert = KKTCertificate(ystar, mu, u, vsel, vbar, bstar, astar)
        recheck = check_kkt(spec, xbar, cert, tol, mode)
        return KKTSearchReport(cert, recheck, tuple(actives), tried, prov)
    return KKTSearchReport(None, None, tuple(actives), tried, prov)


def fuzzy_kkt_demo(spec: ProblemSpec, xbar, ystar, eta: float,
                   radius: float | None = None, grid_n: int = 81,
                   mode: str = "limiting") -> FuzzyReport:
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
        return FuzzyReport(None,
                           "grid resolution coarser than eta; no search point")
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

    fset = direct_subdiff(ystar, spec.objectives, x_eta, mode,
                          spec.kink_tol).set
    idx = list(acts.index_set)
    con_polys = {}
    scen_used = {}
    for i in idx:
        S = sup_rule(spec.constraints[i - 1], x_eta, acts.scenarios[i - 1],
                     "hull", spec.kink_tol).set  # no fixture is read
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
            total += res.values[np.asarray(cone_ids)] @ N
        incl_res = float(np.linalg.norm(total))
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
    return FuzzyReport(None, "inclusion LP unsatisfiable at x_eta")


def _membership_residual(p: np.ndarray, V: np.ndarray) -> float:
    # min t s.t. |sum_i lam_i v_i - p|_inf <= t, lam in simplex
    d = V.shape[1]
    lp = LPBuilder()
    lam = lp.add_vars(V.shape[0])
    t = lp.add_var()
    lp.add_eq({i: 1 for i in lam}, 1)
    for j in range(d):
        lp.add_ub({**{lam[i]: V[i, j] for i in range(V.shape[0])}, t: -1}, p[j])
        lp.add_ub({**{lam[i]: -V[i, j] for i in range(V.shape[0])}, t: -1}, -p[j])
    lp.set_objective({t: 1})
    res = lp.solve()
    if not res.feasible:  # simplex row always feasible; defensive
        return math.inf
    return max(res.objective, 0.0)


def point_in_cone_residual(p, cone: np.ndarray) -> float:
    """Infinity-norm distance from representing p as a conic combination
    of the rows of cone."""
    p = np.asarray(p, dtype=float).reshape(-1)
    if not cone.shape[0]:
        return float(np.max(np.abs(p), initial=0.0))
    lp = LPBuilder()
    cs = lp.add_vars(cone.shape[0])
    t = lp.add_var()
    for j in range(cone.shape[1]):
        row = {cs[i]: cone[i, j] for i in range(len(cs)) if cone[i, j] != 0}
        lp.add_ub({**row, t: -1}, p[j])
        lp.add_ub({**{k: -a for k, a in row.items()}, t: -1}, -p[j])
    lp.set_objective({t: 1})
    res = lp.solve()
    return max(res.objective, 0.0) if res.feasible else math.inf
