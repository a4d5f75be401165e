"""The per-sample pseudo-convexity sweep that ``certify.pseudoconvex_test``
replaced with one array pass per y*, kept as the oracle of the
differential tests in test_sweep.py.

``loop_pseudoconvex_test`` visits each sample, then each y* whose premise
holds there, in index order, and stops at the first y* without a witness.
It returns one ``SampleVerdict`` per sample, the per-sample report the
sweep gave before its verdicts became one array (the sample, the verdict,
the number of y* whose premise holds there and, for an INCONCLUSIVE
sample, the first y* without a witness), and the (y* index, premise mask)
pairs whose normalized margin it solved.

``_planar_witness_margin`` is the planar margin as the sweep computed it
before its geometry was built once per sweep: one margin call per (y*,
mask, component) over the monotone-chain hull ``_planar_ball`` of the
witness ball.  It is kept verbatim as the oracle of the batched l1 and
linf margins.

``direct_subdiff`` is the scalarization as it was before
``subdiff.Scalarization`` walked each objective once per sweep: it builds
the tree add(mul(const(y_1), f_1), ...) for every y* and walks it.  It is
kept verbatim as the oracle of test_scalarization.py.

``_witness_ball`` and ``_lp_witness_margin`` are the witness ball of one
component and its margin as one HiGHS LP (``lp_oracle.highs``), which the
sweep used off the plane before it refused dimensions other than 2.  They
are kept as the HiGHS oracle of the planar margins (test_planar.py) and
the margin of this loop off the plane.

``SweepGeometry`` is the sweep's planar geometry as it was while its ball
was the ``ball_facets``-gon (the l2 polygon holding each component's exact
directions, merged in by sorting all of each row's vertices and rolling
them; a row whose merge was not clearly convex took ``_planar_ball``, the
monotone-chain hull of its points).  It is the polygon rule: in the l1 and
linf norms the sweep's margins must be bit-equal to it, and in l2 they may
only rise above it, by at most the polygon's inradius gap
(test_sweep_oracle.py and the layer benchmark test_sweep_bench.py).  It
scores the zero tie ray of coincident vertices 0/0, so a row with them is
compared without them.  With
the exact directions on, no base-polygon vertex is a candidate ray of a
row outside the hull fallback; ``full=True`` keeps the rule before that,
every base vertex a candidate of every row.

``disk_margin`` and ``disk_margins`` are the l2 margins over the exact unit
disk by brute force: 2^14 evenly spaced directions and the wedge's
boundary rays, each local maximum among them refined between its
neighbours.  As the sweep admits a ray by its cut test, <a, r> <= 1e-12
|a| |r|, they bracket its margin between the disk's over the walls' own
wedge and over that wider one; the sweep's l2 margins must lie within
1e-12 of the bracket.

``weights`` is ``Scalarization._weights`` as it ran once per y*: the
tree's constants folded and then every refusal of the call, the structure
key's too.  It is kept verbatim, a function of the Scalarization ``self``,
as the oracle of ``Scalarization.groups``, which folds the weights of all
its rows at once and refuses once per key (test_sweep_oracle.py).  Since
``Scalarization`` reads its objectives from the compiled walk, it walks
the refused product with ``walker_oracle.PointWalk``, the walk the call
made, and reads an objective's first fault as ``fault``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

import walker_oracle
from helpers import ball_polytope
from lp_oracle import highs
from robustkkt.certify import (
    _CUT_TOL,
    CertifyError,
    _constraint_rows,
    _witness_cuts,
    ystar_grid,
)
from robustkkt.funcdsl import DEFAULT_KINK_TOL, Expr, _check_scenario, \
    const, eval_expr
from robustkkt.lp import LPBuilder
from robustkkt.setcalc import DUAL_NORM, Polytope, _cross, \
    _monotone_chain, norm_grid, normal_cone
from robustkkt.subdiff import SubdiffResult, limiting_subdiff


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


def _planar_ball(ball: np.ndarray):
    """(vertices, outward edge normals, edge heights) of the convex hull of
    the (n, 2) rows of ball, vertices counterclockwise.  The ball holds the
    origin in its interior, as every primal-norm ball does, so every height
    is positive."""
    P = list(map(tuple, ball.tolist()))
    H = np.array([P[k] for k in _monotone_chain(P, range(len(P)))])
    edges = np.roll(H, -1, axis=0) - H
    normals = np.column_stack([edges[:, 1], -edges[:, 0]])
    return H, normals, np.einsum("ij,ij->i", normals, H)


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
    res = highs(lp)
    if not res.feasible:
        return None
    return -res.objective, res.values[np.asarray(w_ids)]


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


def component_witness_margin(comp, nrm, ytheta, rows_here, con_rows, N,
                             pball, l2_exact_dirs=False, polygon=None):
    """Max margin delta >= 0 with <u, w> + nrm*ytheta <= -delta for every
    vertex u of the component, and the maximising w; None if no w has a
    nonnegative margin.  w ranges over nrm times the witness ball, cut by
    the premise-holding rows and the normal cone; in the plane by the
    closed-form path, otherwise by HiGHS."""
    cuts = _witness_cuts(comp.dim, rows_here, con_rows, N)
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
    norms = norm_grid(spec.norm, D)
    G = ys @ (F - fbar[:, None]) + np.outer(ys @ spec.theta, norms)
    if ptype == "I":
        active = G < -eps_strict
    else:
        active = G <= 1e-12
    active[:, norms <= 1e-12] = False

    con_rows = _constraint_rows(spec, xbar)
    T = len(con_rows)
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

    pball = ball_polytope(DUAL_NORM[spec.norm], spec.dim, spec.ball_facets)
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
                    comp, 1.0, float(ytheta_all[myi]), rows_here, con_rows,
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
    return verdicts, set(margin_cache)


def weights(self, ys: list) -> tuple[tuple, list[float]]:
    """The weights ys refused where the tree and its walk refuse them;
    else the structure they give the tree (per objective 0 where its
    term drops, 1 where its constant comes to 1, else 2; and whether
    the constants sum to nonzero) and the float constants of the terms
    marked 2."""
    if len(ys) != len(self.objectives):
        raise ValueError("weight/objective count mismatch")
    # the tree's constants, refused where mul and add refuse them
    states, kept, cps, csum = [], [], [], Fraction(0)
    for y, ob in zip(ys, self.objectives):
        # Fraction(y) * 1 is y, and Fraction(y) refuses inf and NaN
        cp = (y if ob.plain and math.isfinite(y)
              else Fraction(y) * ob.const)
        states.append(0)
        if cp == 0:
            continue
        if not ob.factors or cp != 1 and ob.const != 1:
            const(cp)  # a float y times 1 always fits
        if not ob.factors:
            csum += cp
            continue
        kept.append((ob, cp))
        states[-1] = 1 if cp == 1 else 2
        if cp == 1:
            csum += ob.unit_const
        else:
            cps.append(float(cp))
    if csum:
        const(csum)
    # then limiting_subdiff's refusals, and the walk's in term order
    if self.mode not in ("limiting", "hull"):
        raise ValueError(f"unknown mode {self.mode!r}")
    for ob, _ in kept:
        _check_scenario(ob.f, None)
    for ob, cp in kept:
        if ob.error is not None:
            raise ob.error.with_traceback(None)
        if ob.rough:  # refused as the walk of the term refuses it
            walker_oracle.PointWalk(self.xl, None, self.kink_tol).node(
                Expr("prod", children=((const(cp),) if cp != 1 else ())
                     + tuple(ob.factors)), True)
    for ob, _ in kept:
        if ob.fault is not None:
            raise ob.fault.with_traceback(None)
    return (tuple(states), csum != 0), cps


class SweepGeometry:
    """The planar witness margins of one sweep, for all y* at once, over
    the polygon pball (with l2_dirs, and each component's exact directions).

    w ranges over the witness ball clipped to the wedge of a mask's walls
    <a, w> <= 0, and min_u -<u, w> is linear between the tie lines
    <u_i - u_j, w> = 0, so the optimum is the origin or the boundary point
    of a ball vertex, wall ray or tie ray.  The base polygon (the hull of
    the primal ball), the cut tests of its vertices and wall rays for every
    mask, and those rays' gauge terms on its edges, best first, are built
    once.  A component's exact directions are merged into the base polygon
    by angle (Preparata & Shamos, Computational Geometry, 1985, sec.
    3.3.6), for every y* at once: each splits one edge in two, so a known
    ray's gauge is its best edge not split, or a new edge.  Any other ray
    leaves a convex polygon by the edge its angle falls in, so its gauge is
    taken on the edges next to that angle.  A y* whose merge is not clearly
    convex takes the hull of its ball.  With l2_dirs the known rays are the
    wall rays alone, unless full: the optimum on an arc between neighbouring
    exact directions, tie and wall rays is at an end or at the support point
    of its one linear piece, an exact direction.
    """

    def __init__(self, pball: Polytope, l2_dirs: bool, walls: list,
                 full: bool = False):
        self.pball, self.l2_dirs = pball, l2_dirs
        H, normals, heights = _planar_ball(pball.vertices)
        # rows (vertex, normal and height of the edge it starts) by angle,
        # which is a rotation of the counterclockwise H
        ang = np.arctan2(H[:, 1], H[:, 0])
        order = np.argsort(ang)
        self.G, self.ang = np.column_stack([H, normals, heights])[order], \
            ang[order]
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
        base = self.G[:, :2] if full or not l2_dirs else np.zeros((0, 2))
        known = np.vstack([base, perp])
        # each known ray's gauge terms <r, n>/h on the base polygon's
        # edges, best first, and their edges
        B = (known @ self.G[:, 2:4].T) / self.G[:, 4]
        top = np.argsort(-B, axis=1, kind="stable")
        self.known = (known, np.hstack([self.cut_ok(base), perp_ok]),
                      np.take_along_axis(B, top, 1), top)
        self.perp_known = (perp, perp_ok)

    def cut_ok(self, rays: np.ndarray) -> np.ndarray:
        """(masks, rays): does <a, r> <= _CUT_TOL |a| |r| for every wall a."""
        slack = self.walls @ rays.T
        bad = slack > _CUT_TOL * np.outer(self.wall_norms,
                                          np.linalg.norm(rays, axis=1))
        return ~(self.wall_owner @ bad)

    def _near(self, rays: np.ndarray):
        """The base polygon's edges next to each ray's angle (the edge the
        ray leaves by and its neighbours), and <r, n>/h on each, rounded as
        the product of many rays and the normals rounds (numpy takes one
        row alone through a vector product, so each ray goes twice)."""
        k = np.searchsorted(self.ang, np.arctan2(rays[..., 1], rays[..., 0]))
        near = (k[..., None] + np.arange(-2, 1)) % self.ang.size
        E = self.G[near]
        twin = np.stack([rays, rays], axis=-2)
        return near, (twin @ E[..., 2:4].swapaxes(-1, -2))[..., 0, :] \
            / E[..., 4]

    def margins(self, comps: list, ytheta: np.ndarray) -> np.ndarray:
        """(rows, masks): the witness margin at ||x - xbar|| = 1 of every
        mask for each row's set, given as component slots (rows, k, 2): the
        least over the components of the largest delta >= 0 with
        <u, w> + ytheta <= -delta for every vertex u, -inf if some
        component has none.  w ranges over the witness ball clipped to the
        mask's wedge; with l2_dirs the ball gains the exact unit directions
        opposite the component's vertices (still on the sphere, so still
        an inner approximation)."""
        best = np.full((ytheta.size, self.wall_owner.shape[0]), math.inf)
        for U in comps:
            m = self._component(U, ytheta)
            best = np.minimum(best, np.where(m < 0.0, -math.inf, m))
        return best

    def _component(self, U: np.ndarray, ytheta: np.ndarray) -> np.ndarray:
        """The best value over each mask's admissible rays, per row, for
        one component slot U (rows, k, 2)."""
        R, k, _ = U.shape
        i, j = np.triu_indices(k, 1)
        t = U[:, i] - U[:, j]
        ties = np.stack([-t[..., 1], t[..., 0]], axis=2)
        fresh = np.concatenate([ties, -ties], axis=1)
        hit, new = np.zeros((R, 0), dtype=int), np.zeros((R, 0, 3))
        hull = np.zeros(R, dtype=bool)
        if self.l2_dirs:  # the exact directions -u/|u| of nonzero u
            nu = np.sqrt(U[..., None, :] @ U[..., None])[..., 0, 0]
            has = nu > 1e-15
            E = -U / np.where(has, nu, 1.0)[..., None]
            convex, hit, new = self._insert(E)
            hull = ~(convex & has.all(axis=1))
            # a row taking the hull may have an edge of length 0 here
            new[hull] = [0.0, 0.0, 1.0]
            fresh = np.concatenate([E, fresh], axis=1)
        # the gauges on each row's polygon: the base polygon's edges but
        # the ones split, and the new ones
        known, known_ok, best, at = self.known
        top = hit.shape[1] + 1  # one of these edges is not split
        old = np.where((at[:, :top, None] == hit[:, None, None]).any(axis=3),
                       -math.inf, best[:, :top]).max(axis=2)
        near, vals = self._near(fresh)
        vals = np.where((near[..., None] == hit[:, None, None]).any(axis=3),
                        -math.inf, vals)
        rays = np.concatenate([np.broadcast_to(known, (R, *known.shape)),
                               fresh], axis=1)
        gauge = np.concatenate([old, vals.max(axis=2)], axis=1)
        if new.shape[1]:
            gauge = np.maximum(gauge, ((rays @ new[:, :, :2].transpose(
                0, 2, 1)) / new[:, None, :, 2]).max(axis=2))
        fresh_ok = self.cut_ok(fresh.reshape(-1, 2)).reshape(
            known_ok.shape[0], *fresh.shape[:2]).transpose(1, 0, 2)
        ok = np.concatenate([np.broadcast_to(known_ok, (R, *known_ok.shape)),
                             fresh_ok], axis=2)
        m = self._best(rays, gauge, ok, U, ytheta)
        perp, perp_ok = self.perp_known
        for r in np.flatnonzero(hull).tolist():
            H, normals, heights = _planar_ball(np.vstack([
                self.pball.vertices, E[r][has[r]]]))
            extra = np.vstack([H, fresh[r, k:]])
            rays = np.vstack([perp, extra])
            ok = np.hstack([perp_ok, self.cut_ok(extra)])
            gauge = np.max((rays @ normals.T) / heights, axis=1)
            m[r] = self._best(rays[None], gauge[None], ok[None], U[[r]],
                              ytheta[[r]])[0]
        return m

    def _insert(self, E: np.ndarray):
        """Each row's directions E (rows, j, 2) merged into the base polygon
        by angle: whether every turn next to them is clearly convex, the
        base edges they split, and the edges that start or end at one
        (normal, height), 2j per row (a spare one is an edge kept)."""
        R, j, _ = E.shape
        n = self.ang.size
        a = np.arctan2(E[..., 1], E[..., 0])
        order = np.argsort(np.concatenate([np.broadcast_to(
            self.ang, (R, n)), a], axis=1), axis=1, kind="stable")
        V = np.take_along_axis(np.concatenate([np.broadcast_to(
            self.G[:, :2], (R, n, 2)), E], axis=1), order[..., None], 1)
        ins = order >= n
        p, q = np.roll(V, 1, axis=1), np.roll(V, -1, axis=1)
        turn = _cross(p.T, V.T, q.T).T
        near = ins | np.roll(ins, 1, axis=1) | np.roll(ins, -1, axis=1)
        convex = ~np.any(near & (turn <= 1e-12), axis=1)
        # the edge V[s] -> V[s + 1], as _planar_ball computes it
        s = np.argsort(~(ins | np.roll(ins, -1, axis=1)), axis=1,
                       kind="stable")[:, :2 * j, None]
        start = np.take_along_axis(V, s, 1)
        d = np.take_along_axis(q, s, 1) - start
        normals = np.stack([d[..., 1], -d[..., 0]], axis=2)
        heights = np.einsum("ij,ij->i", normals.reshape(-1, 2),
                            start.reshape(-1, 2)).reshape(R, -1, 1)
        return convex, (np.searchsorted(self.ang, a) - 1) % n, \
            np.concatenate([normals, heights], axis=2)

    @staticmethod
    def _best(rays, gauge, ok, U, ytheta) -> np.ndarray:
        """(rows, masks): the best margin over the rays each mask admits."""
        # the ray along r leaves the ball at r / gauge(r)
        vals = -np.max((rays / gauge[..., None]) @ U.transpose(0, 2, 1),
                       axis=2) - ytheta[:, None]
        # the origin, w = 0, is always admissible
        return np.maximum(np.where(ok, vals[:, None], -math.inf).max(axis=2),
                          -ytheta[:, None])


_STEP = 2 * np.pi / 2 ** 14
_CIRCLE = np.arange(2 ** 14) * _STEP
_CIRCLE_W = np.stack([np.cos(_CIRCLE), np.sin(_CIRCLE)])
# the wedges the bracket of disk_margin is taken over: the walls' own, but
# for rounding, and the one the sweep's cut test admits
_WEDGES = (1e-15, _CUT_TOL)


def disk_margin(U: np.ndarray, ytheta: float, cuts: np.ndarray):
    """The bracket (lo, hi) of the sweep's l2 margin of one component with
    vertices U: the max of -max_u <u, w> - ytheta over the unit disk's w
    with <a, w> <= tol |a| |w| for the rows a of cuts, at tol 1e-15 (the
    walls' wedge but for rounding) and at tol _CUT_TOL (the wider wedge
    the sweep's cut test admits).

    The objective is positively homogeneous but for -ytheta, so each
    optimum is the origin's -ytheta or that of a unit direction.  The
    directions tried are 2^14 evenly spaced angles and each wedge's
    boundary rays, along the walls and turned off them by asin(tol); around
    each local maximum among the admissible ones, an angle between its
    neighbours is zoomed in on."""
    norms = np.linalg.norm(cuts, axis=1)
    live = norms > 0.0
    a = cuts[live] / norms[live, None]
    along = np.vstack([np.column_stack([-a[:, 1], a[:, 0]]),
                       np.column_stack([a[:, 1], -a[:, 0]])])
    turns = np.arcsin(np.array(_WEDGES) * (1.0 - 1e-6))
    w = np.hstack([_CIRCLE_W, along.T, *(
        (along * np.cos(c) + np.tile(a, (2, 1)) * np.sin(c)).T
        for c in turns)])
    t = np.arctan2(w[1], w[0]) % (2 * np.pi)
    order = np.argsort(t, kind="stable")
    t, w = t[order], w[:, order]
    v = _value(U, ytheta, w)
    slack = cuts @ w  # every w is a unit vector
    brackets = [_peaks(t[ok], v[ok]) for ok in (
        ~np.any(slack > tol * norms[:, None], axis=0) for tol in _WEDGES)]
    # every bracket zoomed in on at once (33 angles, 9 times)
    lo, hi = (np.concatenate(e) for e in zip(*brackets))
    best = np.full(lo.size, -np.inf)
    grid = np.linspace(0.0, 1.0, 33)
    for _ in range(9):
        s = lo[:, None] + (hi - lo)[:, None] * grid
        v = _value(U, ytheta, np.stack([np.cos(s), np.sin(s)]))
        j = np.argmax(v, axis=1)
        best = np.maximum(best, np.take_along_axis(v, j[:, None], 1)[:, 0])
        lo = np.take_along_axis(s, np.maximum(j - 1, 0)[:, None], 1)[:, 0]
        hi = np.take_along_axis(s, np.minimum(j + 1, 32)[:, None], 1)[:, 0]
    split = np.cumsum([b[0].size for b in brackets])[:-1]
    return tuple(max(-ytheta, np.max(b, initial=-np.inf))
                 for b in np.split(best, split))


def _value(U, ytheta, w):
    return -np.max(np.tensordot(U, w, 1), axis=0) - ytheta


def _peaks(t, v):
    """The brackets (lo, hi) around each local maximum of the values v at
    the ascending admissible angles t, and around their maximum: its
    admissible neighbours on either side, where they are next to it."""
    lo, hi = np.roll(t, 1), np.roll(t, -1)
    if t.size:
        lo[0] -= 2 * np.pi
        hi[-1] += 2 * np.pi
    lo = np.where(t - lo < 1.5 * _STEP, lo, t)
    hi = np.where(hi - t < 1.5 * _STEP, hi, t)
    vlo = np.where(lo < t, np.roll(v, 1), -np.inf)
    vhi = np.where(hi > t, np.roll(v, -1), -np.inf)
    peak = (v > vlo) & (v >= vhi)
    if t.size:
        peak[np.argmax(v)] = True
    return lo[peak], hi[peak]


def disk_margins(comps: list, ytheta: np.ndarray, walls: list) -> tuple:
    """(lo, hi), each (rows, masks): the bracket of the sweep's l2 margins
    by disk_margin, the least over the components.  A negative one is
    kept as it is (the sweep writes -inf there), so that a margin the
    sweep rounds to just above 0 can be told from a clearly negative one."""
    out = np.empty((2, ytheta.size, len(walls)))
    for r in range(ytheta.size):
        for m, cuts in enumerate(walls):
            out[:, r, m] = np.min([disk_margin(U[r], ytheta[r], cuts)
                                   for U in comps], axis=0)
    return out[0], out[1]
