"""Exact small-dimension calculus of convex polytopes and finite unions.

Everything is carried in V-representation: the sets that show up in the
worked problems are points, segments and small boxes, so vertex lists stay
tiny and Minkowski sums / hulls / zero-membership reduce to vertex
arithmetic plus little LPs.  Normal cones are (k, d) generator arrays, a
line being the pair g, -g; the ordering cone is a per-axis sign orthant.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .lp import LPBuilder

VERTEX_TOL = 1e-12
# component selections that zero_in_sum or search_kkt try, one exact LP each
SELECTIONS_LIMIT = 4096
OMEGA_TOL = 1e-9  # how far outside the ground set a point still counts in
MEMBERSHIP_TOL = 1e-9  # how far outside a polytope a point still counts in


class SetCalcError(Exception):
    pass


class DimensionMismatch(SetCalcError):
    pass


# ---------------------------------------------------------------------------
# Polytopes and unions
# ---------------------------------------------------------------------------

def _dedup_rows(rows: np.ndarray) -> np.ndarray:
    """The rows in lexicographic order, less each row within VERTEX_TOL
    (infinity norm) of the last row kept before it; a new array."""
    if rows.shape[0] <= 1:
        return rows.copy()
    order = np.lexsort(rows.T[::-1])
    rows = rows[order]
    # no neighbour near (a NaN gap is near): the loop would keep every row
    if np.all(np.max(np.abs(np.diff(rows, axis=0)), axis=1) > VERTEX_TOL):
        return rows
    keep = [0]
    for i in range(1, rows.shape[0]):
        if np.max(np.abs(rows[i] - rows[keep[-1]])) > VERTEX_TOL:
            keep.append(i)
    return rows[keep]


class Polytope:
    """Convex polytope given by its vertices (rows of ``vertices``), which
    are read-only, so that one polytope can be shared."""

    def __init__(self, vertices, reduce: bool = False):
        V = np.atleast_2d(np.asarray(vertices, dtype=float))
        if V.size == 0:
            raise SetCalcError("polytope needs at least one vertex")
        V = _dedup_rows(V)
        if reduce:
            V = _extreme_points(V)
        V.flags.writeable = False
        self.vertices = V

    @property
    def dim(self) -> int:
        return self.vertices.shape[1]

    @property
    def nverts(self) -> int:
        return self.vertices.shape[0]

    def contains(self, p):
        """Membership test; returns (bool, residual) with residual the best
        achievable infinity-norm gap between p and a convex combination."""
        p = np.asarray(p, dtype=float).reshape(-1)
        if p.shape[0] != self.dim:
            raise DimensionMismatch("point/polytope dimension mismatch")
        res = (_planar_residual if self.dim == 2 else _membership_residual)(
            p, self.vertices)
        return res <= MEMBERSHIP_TOL, res

    def __repr__(self):
        return f"Polytope({self.vertices.tolist()})"


def _membership_residual(p: np.ndarray, V: np.ndarray,
                         simplex: bool = True) -> float:
    """min t s.t. |sum_i c_i v_i - p|_inf <= t over c >= 0, the rows v_i
    of V; with simplex, sum_i c_i = 1, else c spans a cone."""
    lp = LPBuilder()
    cs = lp.add_vars(V.shape[0])
    t = lp.add_var()
    if simplex:
        lp.add_eq(dict.fromkeys(cs, 1), 1)
    for j in range(V.shape[1]):
        row = {c: a for c, a in zip(cs, V[:, j].tolist()) if a != 0.0}
        lp.add_ub({**row, t: -1}, p[j])
        lp.add_ub({**{c: -a for c, a in row.items()}, t: -1}, -p[j])
    lp.set_objective({t: 1})
    res = lp.solve()
    return max(res.objective, 0.0) if res.feasible else math.inf


def _planar_residual(p: np.ndarray, V: np.ndarray) -> float:
    """_membership_residual in the plane, exactly and without an LP: the
    float of the exact optimum, at any number of vertices."""
    P, scale = _integer_plane(np.vstack([p, V]))
    num, den = _hull_distance(
        P[0], [P[k] for k in _monotone_chain(P, range(1, len(P)))])
    # int / int is correctly rounded, like the float of the exact LP optimum
    return num / (den * scale)


def _extreme_points(V: np.ndarray) -> np.ndarray:
    """Drop vertices that are convex combinations of the others.

    Row by row, a point goes when its infinity-norm distance to the hull of
    the other points still kept is at most VERTEX_TOL.  Planar inputs take
    the exact monotone-chain path; other dimensions solve one exact
    membership LP per point.
    """
    if V.shape[0] <= 2:
        return V
    if V.shape[1] == 2:
        return V[_planar_keep_mask(V)]
    return _lp_extreme_points(V)


def _lp_extreme_points(V: np.ndarray) -> np.ndarray:
    """_extreme_points by one exact membership LP per point."""
    keep = np.ones(V.shape[0], dtype=bool)
    for i in range(V.shape[0]):
        others = V[keep & (np.arange(V.shape[0]) != i)]
        if others.shape[0] == 0:
            continue
        if _membership_residual(V[i], others) <= VERTEX_TOL:
            keep[i] = False
    return V[keep]


# Exact planar geometry.  Binary floats are dyadic rationals, so scaling the
# rows by one common power of two turns them into Python integers without
# loss, and every orientation test and distance below is exact.

def _integer_plane(V: np.ndarray) -> tuple[list[tuple[int, int]], int]:
    """Rows of the (n, 2) array V as integer pairs over a common scale."""
    ratios = [t.as_integer_ratio() for t in V.ravel().tolist()]
    scale = max(q for _, q in ratios)
    ints = [p * (scale // q) for p, q in ratios]
    return list(zip(ints[0::2], ints[1::2])), scale


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _monotone_chain(P, idx) -> list[int]:
    """Strict hull vertices of the points P[idx], counterclockwise.

    Andrew's monotone chain (A. M. Andrew, IPL 9(5), 1979); collinear and
    repeated points are left out.
    """
    order = sorted(idx, key=P.__getitem__)
    if len(order) <= 1:
        return order
    lower: list[int] = []
    upper: list[int] = []
    for chain, seq in ((lower, order), (upper, reversed(order))):
        for k in seq:
            while len(chain) >= 2 and _cross(P[chain[-2]], P[chain[-1]],
                                             P[k]) <= 0:
                chain.pop()
            chain.append(k)
    return lower[:-1] + upper[:-1]


def upper_hull(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Indices of the upper convex hull's vertices of the finite points
    (a[i], b[i]), by increasing a, exactly; of equal a, the highest b.
    The upper chain of Andrew's monotone chain, built left to right."""
    order = np.lexsort((b, a))
    order = order[np.r_[a[order][1:] != a[order][:-1], True]]
    P = _integer_plane(np.column_stack([a[order], b[order]]))[0]
    H: list[int] = []
    for k in range(order.size):
        while len(H) >= 2 and _cross(P[H[-2]], P[H[-1]], P[k]) >= 0:
            H.pop()
        H.append(k)
    return order[H]


def _segment_distance(p, a, b) -> tuple[int, int]:
    """Infinity-norm distance from p to the segment ab as (num, den)."""
    ux, uy = a[0] - p[0], a[1] - p[1]
    ex, ey = b[0] - a[0], b[1] - a[1]
    # max(|ux + t ex|, |uy + t ey|) is convex and piecewise linear in t, so
    # its minimum over [0, 1] sits at an end, where a term vanishes, or
    # where the two terms tie
    cands = [(0, 1), (1, 1)]
    for num, den in ((-ux, ex), (-uy, ey), (uy - ux, ex - ey),
                     (-ux - uy, ex + ey)):
        if den < 0:
            num, den = -num, -den
        if 0 < num < den:
            cands.append((num, den))
    best = None
    for num, den in cands:
        g = max(abs(ux * den + num * ex), abs(uy * den + num * ey))
        if best is None or g * best[1] < best[0] * den:
            best = (g, den)
    return best


def _hull_distance(p, H) -> tuple[int, int]:
    """Infinity-norm distance from p to the polygon with vertices H
    (counterclockwise, as returned by _monotone_chain), as (num, den)."""
    if len(H) == 1:
        return max(abs(p[0] - H[0][0]), abs(p[1] - H[0][1])), 1
    if len(H) == 2:
        return _segment_distance(p, H[0], H[1])
    best = None
    for a, b in zip(H, H[1:] + H[:1]):
        # the nearest point lies on an edge whose outer side holds p
        if _cross(a, b, p) > 0:
            continue
        num, den = _segment_distance(p, a, b)
        if best is None or num * best[1] < best[0] * den:
            best = (num, den)
    return (0, 1) if best is None else best  # no edge faces p: inside


def _planar_keep_mask(V: np.ndarray) -> np.ndarray:
    """The rows _extreme_points keeps of an (n, 2) array, decided exactly.

    A point that is not a strict vertex of the hull of the points still
    kept lies in the hull of the others, at distance 0, and goes.  For a
    strict vertex the exact distance to the hull of the others decides.
    """
    P, scale = _integer_plane(V)
    n = len(P)
    keep = [True] * n
    verts = set(_monotone_chain(P, range(n)))
    for i in range(n):
        if i not in verts:
            keep[i] = False
            continue
        others = [j for j in range(n) if keep[j] and j != i]
        if not others:
            continue
        num, den = _hull_distance(
            P[i], [P[j] for j in _monotone_chain(P, others)])
        # int / int is correctly rounded, like the float of the exact LP
        # optimum it replaces
        if num / (den * scale) <= VERTEX_TOL:
            keep[i] = False
            verts = set(_monotone_chain(
                P, [j for j in range(n) if keep[j]]))
    return np.array(keep)


class PolytopeSet:
    """Finite union of convex polytopes of a common dimension, kept as
    the tuple ``components``."""

    def __init__(self, components):
        comps = tuple(components)
        if not comps:
            raise SetCalcError("empty polytope union")
        d = comps[0].dim
        for c in comps:
            if c.dim != d:
                raise DimensionMismatch("mixed dimensions in union")
        self.components = comps

    @classmethod
    def singleton(cls, p) -> "PolytopeSet":
        return cls([Polytope([np.asarray(p, dtype=float)])])

    @property
    def dim(self) -> int:
        return self.components[0].dim

    @property
    def ncomponents(self) -> int:
        return len(self.components)

    def all_vertices(self) -> np.ndarray:
        return np.vstack([c.vertices for c in self.components])

    def contains(self, p):
        best = math.inf
        for c in self.components:
            _, r = c.contains(p)
            best = min(best, r)
        return best <= MEMBERSHIP_TOL, best

    def __repr__(self):
        return f"PolytopeSet({[c.vertices.tolist() for c in self.components]})"


def minkowski_sum(a: PolytopeSet, b: PolytopeSet) -> PolytopeSet:
    if a.dim != b.dim:
        raise DimensionMismatch("minkowski_sum dimension mismatch")
    comps = []
    for ca, cb in itertools.product(a.components, b.components):
        sums = (ca.vertices[:, None, :] + cb.vertices[None, :, :]).reshape(-1, a.dim)
        comps.append(Polytope(sums, reduce=True))
    return PolytopeSet(comps)


def scale(a: PolytopeSet, c: float) -> PolytopeSet:
    """Vertexwise scaling; c = 0 collapses the union to the origin."""
    if c == 0:
        return PolytopeSet.singleton(np.zeros(a.dim))
    return PolytopeSet([Polytope(comp.vertices * float(c)) for comp in a.components])


def hull(a: PolytopeSet) -> Polytope:
    return Polytope(a.all_vertices(), reduce=True)


# ---------------------------------------------------------------------------
# Cones
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConeSpec:
    """The ordering cone K, a per-axis sign orthant.

    A sign pattern entry +1 means the axis is constrained >= 0, -1 means
    <= 0.  Sign-orthant cones are pointed and closed by construction, and
    each is its own dual cone: K+ = K.
    """
    pattern: tuple[int, ...]

    def __post_init__(self):
        if any(s not in (-1, 1) for s in self.pattern):
            raise SetCalcError("sign pattern entries must be +1 or -1")

    @property
    def dim(self) -> int:
        return len(self.pattern)

    def contains(self, y) -> bool:
        y = np.asarray(y, dtype=float).reshape(-1)
        s = np.asarray(self.pattern, dtype=float)
        return bool(np.all(s * y >= -1e-12))


# ---------------------------------------------------------------------------
# Ground sets and normal cones
# ---------------------------------------------------------------------------

class OmegaSpec(NamedTuple):
    """Ground set: the points x with normals @ x <= offsets, a (k, d)
    array of rows and its k offsets; the whole space has no rows."""
    normals: np.ndarray
    offsets: np.ndarray

    @property
    def dim(self) -> int:
        return self.normals.shape[1]

    @classmethod
    def whole(cls, dim: int) -> "OmegaSpec":
        return cls(np.zeros((0, dim)), np.zeros(0))

    @classmethod
    def box(cls, lo, hi) -> "OmegaSpec":
        """lo <= x <= hi: one row per finite bound, each coordinate's lower
        bound before its upper one."""
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        if lo.shape != hi.shape or np.any(lo > hi):
            raise SetCalcError("invalid box bounds")
        d = lo.shape[0]
        rows, offsets = [], []
        for j in range(d):
            for sign, bound in ((-1.0, lo[j]), (1.0, hi[j])):
                if np.isfinite(bound):
                    rows.append(np.zeros(d))  # -eye[j] would hold -0.0
                    rows[-1][j] = sign
                    offsets.append(sign * bound)
        return cls(np.array(rows).reshape(-1, d), np.array(offsets))

    @classmethod
    def halfspaces(cls, normals, offsets) -> "OmegaSpec":
        A = np.atleast_2d(np.asarray(normals, dtype=float))
        b = np.asarray(offsets, dtype=float).reshape(-1)
        if A.shape[0] != b.shape[0]:
            raise SetCalcError("halfspace normals/offsets mismatch")
        return cls(A, b)

    def contains(self, x) -> bool:
        x = np.asarray(x, dtype=float).reshape(-1)
        return bool(np.all(self.normals @ x <= self.offsets + OMEGA_TOL))

    def contains_grid(self, X) -> np.ndarray:
        shape = np.broadcast_shapes(*map(np.shape, X))
        if not self.offsets.size:  # an open mesh stays open
            return np.ones(shape, dtype=bool)
        D = np.array(np.broadcast_arrays(*X)).reshape(self.dim, -1)
        return np.all(self.normals @ D <= self.offsets[:, None] + OMEGA_TOL,
                      axis=0).reshape(shape)


def normal_cone(omega: OmegaSpec, x) -> np.ndarray:
    """Normal cone to omega at x: the (k, d) array of its generators, the
    normals of the rows active at x, |a.x - b| <= tol max(1, |b|) + tol;
    (0, d) where none is active."""
    x = np.asarray(x, dtype=float).reshape(-1)
    if not omega.contains(x):
        raise SetCalcError("point lies outside the ground set")
    b = omega.offsets
    G = omega.normals[np.abs(omega.normals @ x - b)
                      <= OMEGA_TOL * np.maximum(1.0, np.abs(b)) + OMEGA_TOL]
    if np.any(np.linalg.norm(G, axis=1) == 0):
        raise SetCalcError("cone generators must be nonzero")
    return G


# ---------------------------------------------------------------------------
# Norms and dual-norm balls
# ---------------------------------------------------------------------------

# The norms of x - xbar a problem may choose, each with its dual norm
DUAL_NORM = {"l1": "linf", "l2": "l2", "linf": "l1"}
NORMS = tuple(DUAL_NORM)


def norm_value(norm: str, w) -> float:
    """The norm of the vector w."""
    w = np.asarray(w, dtype=float).reshape(-1)
    if norm == "l1":
        return float(np.sum(np.abs(w)))
    if norm == "linf":
        return float(np.max(np.abs(w), initial=0.0))
    return float(np.linalg.norm(w))


def norm_grid(norm: str, D: np.ndarray) -> np.ndarray:
    """The norm of each column of D."""
    if norm == "l1":
        return np.sum(np.abs(D), axis=0)
    if norm == "linf":
        return np.max(np.abs(D), axis=0)
    return np.sqrt(np.sum(D * D, axis=0))


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


def _regular_polygon(m: int) -> np.ndarray:
    """Inscribed regular m-gon with exact axis vertices and +-symmetry.

    When m is divisible by 4 the vertices are generated in one quadrant and
    reflected, so (0, -1) and (-1, 0) are bit-exact; for even m the polygon
    is exactly symmetric under negation by construction.
    """
    pts: set[tuple[float, float]] = set()
    if m % 4 == 0:
        q = m // 4
        for j in range(q + 1):
            theta = 0.5 * math.pi * j / q
            x = math.cos(theta) if j < q else 0.0
            y = math.sin(theta) if j > 0 else 0.0
            for sx, sy in itertools.product((1.0, -1.0), repeat=2):
                pts.add((sx * x, sy * y))
    elif m % 2 == 0:
        for j in range(m // 2):
            theta = 2.0 * math.pi * j / m
            x, y = math.cos(theta), math.sin(theta)
            pts.add((x, y))
            pts.add((-x, -y))
    else:
        for j in range(m):
            theta = 2.0 * math.pi * j / m
            pts.add((math.cos(theta), math.sin(theta)))
    return _dedup_rows(np.array(sorted(pts)))


# ---------------------------------------------------------------------------
# Zero membership in a sum of unions plus a cone
# ---------------------------------------------------------------------------

class ZeroInSumResult(NamedTuple):
    sat: bool
    selection: tuple[int, ...] | None = None
    weights: list[np.ndarray] | None = None   # per part, per vertex
    cone_weights: np.ndarray | None = None    # per cone generator
    tried: int = 0                            # selections whose LP ran

    def witness_points(self, parts: list[PolytopeSet]) -> list[np.ndarray]:
        return [w @ part.components[k].vertices
                for part, k, w in zip(parts, self.selection, self.weights)]


def check_selections(parts: list[PolytopeSet],
                     error: type[Exception] = SetCalcError) -> None:
    """Refuse, raising error, a choice of one component per part, one LP
    each, that has more than SELECTIONS_LIMIT combinations."""
    count = math.prod(p.ncomponents for p in parts)
    if count > SELECTIONS_LIMIT:
        raise error(f"{count} component selections, over the limit "
                    f"{SELECTIONS_LIMIT}")


# In the rows of zero_in_sum, the d rows of the sum itself
STATIONARITY = "stationarity"


def zero_in_sum(parts: list[PolytopeSet], cone: np.ndarray,
                rows: list | None = None,
                floor: tuple[dict, float] | None = None) -> ZeroInSumResult:
    """Decide 0 in sum_g t_g part_g + cone, exactly over component
    selections; cone is the (k, d) array of its generators.

    Every certificate LP is this one.  Part g enters through nonnegative
    weights on its vertices, whose sum is its total t_g.  rows are the
    equality rows in order: ({g: coefficient}, rhs) asks
    sum_g coefficient t_g = rhs, and STATIONARITY stands for the d rows
    of the sum.  By default every t_g = 1, then STATIONARITY: the plain
    question 0 in sum(parts) + cone.  floor, ({g: coefficient}, bound),
    asks sum_g coefficient t_g >= bound.  The order of the rows decides
    the vertex the exact simplex stops at, and so the witness.

    For each choice of one convex component per part, in
    itertools.product order, one LP has the vertex weights part by part,
    then the cone's coefficients, as columns.  The first satisfiable
    selection is returned, with the number of LPs run.
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
    if rows is None:
        rows = [*(({g: 1}, 1) for g in range(len(parts))), STATIONARITY]
    tried = 0
    for selection in itertools.product(*(range(p.ncomponents) for p in parts)):
        tried += 1
        lp = LPBuilder()
        groups = [(lp.add_vars(part.components[k].nverts),
                   part.components[k].vertices)
                  for part, k in zip(parts, selection)]
        cids = lp.add_vars(cone.shape[0])

        def total(coeffs, sign=1.0):
            return {vid: sign * c for g, c in coeffs.items() if c != 0.0
                    for vid in groups[g][0]}

        for row in rows:
            if row is not STATIONARITY:
                lp.add_eq(total(row[0]), row[1])
                continue
            for a in range(d):
                eq = {}
                for ids, V in [*groups, (cids, cone)]:
                    for vid, coef in zip(ids, V[:, a].tolist()):
                        if coef != 0.0:
                            eq[vid] = coef
                lp.add_eq(eq, 0)
        if floor is not None:
            lp.add_ub(total(floor[0], -1.0), -floor[1])
        res = lp.solve()
        if res.feasible:
            return ZeroInSumResult(
                True, selection,
                [res.values[np.asarray(ids, dtype=int)] for ids, _ in groups],
                res.values[np.asarray(cids, dtype=int)], tried)
    return ZeroInSumResult(False, tried=tried)


def point_in_cone_residual(p, cone: np.ndarray) -> float:
    """Infinity-norm distance from representing p as a conic combination
    of the rows of cone."""
    p = np.asarray(p, dtype=float).reshape(-1)
    if not cone.shape[0]:
        return float(np.max(np.abs(p), initial=0.0))
    return _membership_residual(p, cone, simplex=False)
