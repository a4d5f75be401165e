"""The per-sample pseudo-convexity sweep that ``certify.pseudoconvex_test``
replaced with one array pass per y*, kept as the oracle of the
differential tests in test_sweep.py.

``loop_pseudoconvex_test`` visits each sample, then each y* whose premise
holds there, in index order, and stops at the first y* without a witness.
Besides the report it returns the (y* index, premise mask) pairs whose
normalized margin it solved.

``_normalized_margin`` and ``_planar_witness_margin`` are the planar margin
as the sweep computed it before its geometry was built once per sweep: one
monotone-chain hull per (y*, component) and one margin call per (y*, mask,
component).  They are kept verbatim as the oracle of the batched margins.

``direct_subdiff`` is the scalarization as it was before
``subdiff.Scalarization`` walked each objective once per sweep: it builds
the tree add(mul(const(y_1), f_1), ...) for every y* and walks it.  It is
kept verbatim as the oracle of test_scalarization.py.

``_witness_ball`` and ``_lp_witness_margin`` are the witness ball of one
component and its margin as one HiGHS LP, which the sweep used off the
plane before it refused dimensions other than 2.  They are kept verbatim
as the HiGHS oracle of the planar margins (test_planar.py) and the margin
of this loop off the plane.
"""

from __future__ import annotations

import math

import numpy as np

from robustkkt.certify import (
    _CUT_TOL,
    CertifyError,
    PseudoReport,
    SampleVerdict,
    _constraint_rows,
    _planar_ball,
    _witness_cuts,
    primal_ball,
    ystar_grid,
)
from robustkkt.funcdsl import DEFAULT_KINK_TOL, eval_expr
from robustkkt.lp import LPBuilder
from robustkkt.setcalc import Polytope, normal_cone
from robustkkt.subdiff import SubdiffResult, limiting_subdiff


def direct_subdiff(ystar, fs, x, mode: str = "limiting",
                   kink_tol: float = DEFAULT_KINK_TOL) -> SubdiffResult:
    """Subdifferential of <y*, f> at x, with sum_j y_j f_j differentiated
    as one assembled expression (shared atoms merge)."""
    from fractions import Fraction

    from robustkkt.funcdsl import add, const, mul

    ystar = np.asarray(ystar, dtype=float).reshape(-1)
    if ystar.shape[0] != len(fs):
        raise ValueError("weight/objective count mismatch")
    xs = np.asarray(x, dtype=float).reshape(-1)
    tree = add(*(mul(const(Fraction(float(y))), f)
                 for y, f in zip(ystar, fs)))
    return limiting_subdiff(tree, xs, None, mode, kink_tol)


def _witness_ball(U: np.ndarray, pball: Polytope,
                  l2_exact_dirs: bool) -> np.ndarray:
    """Vertices of the unit ball the witness w ranges over, for a
    component with vertices U.

    With l2_exact_dirs the inscribed ball gains the exact unit directions
    opposite the component's vertices (still on the sphere, so still an
    inner approximation); this removes the polygon deficit along the
    directions that matter near premise boundaries.
    """
    ball = pball.vertices
    if l2_exact_dirs:
        extra = []
        for u in U:
            nu = float(np.linalg.norm(u))
            if nu > 1e-15:
                extra.append(-u / nu)
        if extra:
            ball = np.vstack([ball, np.array(extra)])
    return ball


def _lp_witness_margin(U: np.ndarray, offset: float, ball: np.ndarray,
                       cuts: np.ndarray) -> tuple[float, np.ndarray] | None:
    """Max margin delta >= 0 with <u, w> + offset <= -delta for every row u
    of U, and the maximising w, as one HiGHS LP; None if no w has a
    nonnegative margin.  w ranges over the hull of the rows of ball, with
    <a, w> <= 0 for the rows a of cuts."""
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
    lp.set_objective({delta: -1.0})  # maximize delta
    res = lp._solve_float()
    if not res.feasible:
        return None
    return -res.objective, res.values[np.asarray(w_ids)]


def _normalized_margin(components, shapes: list, ytheta: float, cuts,
                       pball: Polytope, l2_dirs: bool) -> float:
    """Witness margin at ||x - xbar|| = 1: the least over the components of
    the max margin delta >= 0 with <u, w> + ytheta <= -delta for every
    vertex u of the component (the definition lets w depend on the
    subgradient choice); -inf if some component has no nonnegative margin.

    w ranges over the witness ball (_witness_ball), cut by <a, w> <= 0 for
    the vertices a of the premise-holding constraint rows and by the normal
    cone's generators, the rows of cuts.  shapes[k] caches component k's
    ball: its _planar_ball in the plane, its vertices otherwise.
    """
    best = math.inf
    for k, comp in enumerate(components):
        if shapes[k] is None:
            ball = _witness_ball(comp.vertices, pball, l2_dirs)
            shapes[k] = _planar_ball(ball) if comp.dim == 2 else ball
        if comp.dim == 2:
            found = _planar_witness_margin(comp.vertices, ytheta, 1.0,
                                           shapes[k], cuts)
        else:
            found = _lp_witness_margin(comp.vertices, ytheta, shapes[k],
                                       cuts)
        if found is None:
            return -math.inf
        best = min(best, found[0])
    return best


def _planar_witness_margin(U: np.ndarray, offset: float, nrm: float,
                           polygon, cuts: np.ndarray):
    """_lp_witness_margin in the plane, without an LP, over nrm times the
    ball whose _planar_ball is polygon.

    The w-set is that polygon cut by the half-planes <a, w> <= 0, all
    through the origin, so it is the ball clipped to a wedge.  The
    objective min_u -<u, w> is concave and positively homogeneous, linear
    on the wedges between tie lines <u_i - u_j, w> = 0.  On every angular
    sector between consecutive ball vertices, cut lines and tie lines both
    the ball's boundary and the objective are linear, so the optimum is
    the origin or the boundary point of one of those rays.
    """
    H, normals, heights = polygon
    lines = cuts
    if U.shape[0] > 1:
        ties = (U[:, None, :] - U[None, :, :])[np.triu_indices(U.shape[0], 1)]
        lines = np.vstack([cuts, ties])
    perp = np.column_stack([-lines[:, 1], lines[:, 0]])
    rays = np.vstack([H, perp, -perp])
    rays = rays[np.any(rays != 0.0, axis=1)]
    if cuts.shape[0]:
        slack = cuts @ rays.T
        scale = np.outer(np.linalg.norm(cuts, axis=1),
                         np.linalg.norm(rays, axis=1))
        rays = rays[np.all(slack <= _CUT_TOL * scale, axis=0)]
    # the ray along r leaves the ball at r / gauge(r)
    gauge = np.max((rays @ normals.T) / heights, axis=1)
    W = np.vstack([np.zeros((1, 2)), nrm * rays / gauge[:, None]])
    vals = -np.max(W @ U.T, axis=1) - offset
    k = int(np.argmax(vals))
    if vals[k] < 0.0:
        return None
    return float(vals[k]), W[k]


def component_witness_margin(comp, nrm, ytheta, rows_here, con_base, N,
                             pball, l2_exact_dirs=False, polygon=None):
    """Max margin delta >= 0 with <u, w> + nrm*ytheta <= -delta for every
    vertex u of the component, and the maximising w; None if no w has a
    nonnegative margin.  w ranges over nrm times the witness ball, cut by
    the premise-holding rows and the normal cone; in the plane by the
    closed-form path, otherwise by HiGHS."""
    cuts = _witness_cuts(comp.dim, rows_here, con_base, N)
    if comp.dim != 2:
        ball = _witness_ball(comp.vertices, pball, l2_exact_dirs)
        return _lp_witness_margin(comp.vertices, nrm * ytheta, nrm * ball,
                                  cuts)
    if polygon is None:
        polygon = _planar_ball(_witness_ball(comp.vertices, pball, l2_exact_dirs))
    return _planar_witness_margin(comp.vertices, nrm * ytheta, nrm, polygon,
                                  cuts)


def loop_pseudoconvex_test(spec, xbar, ptype, samples=None, region=None,
                           grid=21, y_resolution=24, eps_strict=1e-7,
                           mode="limiting"):
    if ptype not in ("I", "II"):
        raise CertifyError("type must be 'I' or 'II'")
    xbar = np.asarray(xbar, dtype=float).reshape(-1)
    if samples is None:
        a1, b1, a2, b2 = [float(t) for t in region]
        g1, g2 = np.meshgrid(np.linspace(a1, b1, grid),
                             np.linspace(a2, b2, grid), indexing="ij")
        samples = np.vstack([g1.ravel(), g2.ravel()]).T
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    samples = samples[spec.omega.contains_grid(samples.T)]

    ys = ystar_grid(spec, y_resolution)
    fbar = spec.fvec(xbar)
    F = spec.fvec_grid(samples.T)
    D = samples.T - xbar[:, None]
    norms = spec.primal_norm_grid(D)
    G = ys @ (F - fbar[:, None]) + np.outer(ys @ spec.theta, norms)
    if ptype == "I":
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
    cand_g_ok = ~np.any(con_prem & ~row_cand_ok, axis=0)

    N = normal_cone(spec.omega, xbar)
    cone_ok = np.ones(samples.shape[0], dtype=bool)
    for g in N:
        cone_ok &= g @ D <= 1e-12

    pball = primal_ball(spec.norm, spec.dim, spec.ball_facets)
    ytheta_all = ys @ spec.theta
    l2_dirs = spec.norm == "l2"
    scal_cache = {}

    def scal_set(myi):
        if myi not in scal_cache:
            s = direct_subdiff(ys[myi], spec.objectives, xbar, mode,
                               spec.kink_tol).set
            scal_cache[myi] = (s, s.all_vertices())
        return scal_cache[myi]

    margin_cache = {}

    def normalized_margin(myi, mask):
        key = (myi, mask)
        if key not in margin_cache:
            rows_here = [t for t in range(T) if mask[t]]
            best = math.inf
            sset, _ = scal_set(myi)
            for comp in sset.components:
                found = component_witness_margin(
                    comp, 1.0, float(ytheta_all[myi]), rows_here, con_base,
                    N, pball, l2_dirs)
                if found is None:
                    best = None
                    break
                best = min(best, found[0])
            margin_cache[key] = best
        return margin_cache[key]

    verdicts = []
    for sidx in range(samples.shape[0]):
        x = samples[sidx]
        nrm = norms[sidx]
        active_y = np.nonzero(active[:, sidx])[0]
        mask = tuple(bool(b) for b in con_prem[:, sidx])
        need_lp = False
        inconclusive = None
        for myi in active_y:
            yv = ys[myi]
            _, U = scal_set(int(myi))
            if cand_g_ok[sidx] and cone_ok[sidx]:
                top = float((U @ D[:, sidx]).max())
                if top + nrm * float(ytheta_all[myi]) <= -1e-12:
                    continue
            margin = normalized_margin(int(myi), mask)
            if margin is None or margin * nrm < eps_strict:
                inconclusive = (f"no witness margin >= {eps_strict:g} at "
                                f"y*={np.round(yv, 6).tolist()}")
                break
            need_lp = True
        if inconclusive is not None:
            verdicts.append(SampleVerdict(x, "INCONCLUSIVE",
                                          len(active_y), inconclusive))
        elif need_lp:
            verdicts.append(SampleVerdict(x, "VERIFIED-COMMON-W",
                                          len(active_y)))
        else:
            verdicts.append(SampleVerdict(x, "VERIFIED-CANDIDATE-W",
                                          len(active_y)))
    report = PseudoReport(verdicts, all(v.verified for v in verdicts))
    return report, set(margin_cache)
