"""Worst-case constraint envelopes, robust feasibility and rasters.

Each uncertain constraint g_i(x, v) carries a one-dimensional scenario
interval (or a finite scenario list).  At a point x, scenario_envelope
scans the scenarios of g_i once and gives both the envelope
phi_i(x) = max_v g_i(x, v) (a dense grid plus golden-section refinement
on an interval, the plain maximum on a list) and the active scenarios
V_i(x) within SCENARIO_TOL of it.  compute_active_sets collects that one
scan for every constraint; each verdict computes it once per point and
reads feasibility, the envelopes, the active indices and the sup-rule
scenarios from it.  The scan is one array pass of the tree's scan code
over all scenarios, its x-free nodes kept per scenario grid; on a
DomainError or a value that is not finite, the scalar code runs scenario
by scenario instead, so every value and exception is its own.

On dense grid columns, envelope_grid is the running max F over the
scenarios of the tree's grid code (its v-free nodes hoisted), without
refinement.  A max branch c(x) + a(v)*h(x) + b(v), a sum of products of pure
factors with one feature a, is linear in each scenario's point (a_j, b_j),
so its maximum lies on the upper hull of those points (de Berg et al.,
Computational Geometry, 3rd ed., 8.2 and 11.4), kept per constraint in the
process: P = c + max_j (a_j*h + b_j) is a searchsorted on the hull's edge
slopes where h lies between them, and on a raster's open mesh an x factor
costs one pass over the axis it reads.  With N the branch's terms plus its
most factors in one term, u = 2^-53, and C(x) the sum over terms of the
product of max(1, |factor|), which bounds every partial product and so
every underflow, the sum-of-products error bound (Higham, Accuracy and
Stability of Numerical Algorithms, 3.1) applied to the scan, to c, h, a, b
and to P gives |F - P| <= delta(x) = (4N + 8) u C(x) plus what a vertex
picked by rounded slopes can lose (delta is infinite where C(x) > 2^1000).
Rounding is monotone, so delta_max, the same formula on each factor's largest
max(1, |factor|) over the grid, is at least delta(x) wherever P is a
number.  feasibility_mask decides a cell by P when |P - tol| > delta_max,
then, at the cells left, when |P - tol| > delta(x), and rescans the others
with envelope_grid: its mask is exactly the full scan's.  Other branches,
or two or more features, take the full scan.

fuzzy minimises the key np.round(psi, 12) of the merit function psi over a
grid.  Per cell, L <= psi <= U for L and U the objective branch maxed with
each P - delta(x) and P + delta(x); a constraint with no bound enters exactly.
np.round(., 12), a multiply, a rint and a divide by positive constants, is
monotone: round(L) <= key <= round(U).
So a cell whose round(L) exceeds the least round(U) cannot hold the least
key, and one with round(L) == round(U) has that key (-0.0 and +0.0 tie in
a sort).  Psi.candidate_keys rescans only the other cells it keeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, lru_cache, partial, reduce
from operator import mul
from typing import NamedTuple

import numpy as np

from .funcdsl import (
    DEFAULT_KINK_TOL,
    DomainError,
    Expr,
    _floats,
    _on_grid,
    contains_coord,
    eval_expr,
    eval_on_grid,
    eval_scenarios,
    separable_branches,
)
from .setcalc import NORMS, ConeSpec, OmegaSpec, PolytopeSet, upper_hull

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
GOLDEN_TOL = 1e-10  # golden_max stops at a bracket this wide

DEFAULT_VGRID = 1001
DEFAULT_FEAS_TOL = 1e-8
# Scenarios whose value is within SCENARIO_TOL of the envelope are active.
SCENARIO_TOL = 1e-6
# A fixture declared within FIXTURE_TOL of a point (max norm) applies there.
FIXTURE_TOL = 1e-9
# Cells of a raster, sample set or premise matrix: 64 MiB per float64 array
CELLS_LIMIT = 2 ** 23


class ProblemError(Exception):
    pass


@dataclass(frozen=True)
class UncertainConstraint:
    name: str
    expr: Expr
    lo: float | None = None
    hi: float | None = None
    scenarios: tuple[float, ...] | None = None  # finite list alternative

    def __post_init__(self):
        if self.scenarios is not None:  # hashable: keys _scenario_sides
            object.__setattr__(self, "scenarios", tuple(self.scenarios))
        if self.expr.has_v:
            interval = self.lo is not None and self.hi is not None
            if not interval and not self.scenarios:
                raise ProblemError(
                    f"constraint {self.name} uses v but declares no scenarios")
            if interval and self.lo > self.hi:
                raise ProblemError(f"constraint {self.name}: empty interval")
        # v-free constraints are treated as a single dummy scenario


class FixtureSet(NamedTuple):
    """A subdifferential set pinned by a problem file for (name, point)."""
    name: str
    point: np.ndarray
    pset: PolytopeSet


@dataclass(frozen=True)
class ProblemSpec:
    dim: int
    objective_names: tuple[str, ...]
    objectives: tuple[Expr, ...]
    constraints: tuple[UncertainConstraint, ...]
    cone: ConeSpec
    omega: OmegaSpec
    theta: np.ndarray
    norm: str = "l2"
    ball_facets: int = 64
    feas_tol: float = DEFAULT_FEAS_TOL
    kink_tol: float = DEFAULT_KINK_TOL
    vgrid: int = DEFAULT_VGRID
    seed: int = 20240601
    fixtures: tuple[FixtureSet, ...] = ()

    def __post_init__(self):
        if self.dim < 1:
            raise ProblemError("dimension must be >= 1")
        if len(self.objectives) != len(self.objective_names):
            raise ProblemError("objective name/expression count mismatch")
        p = len(self.objectives)
        if self.cone.dim != p:
            raise ProblemError("cone dimension must match objective count")
        if self.omega.dim != self.dim:
            raise ProblemError("ground-set dimension mismatch")
        th = np.asarray(self.theta, dtype=float).reshape(-1)
        if th.shape[0] != p:
            raise ProblemError("theta dimension must match objective count")
        object.__setattr__(self, "theta", th)
        for name, f in zip(self.objective_names, self.objectives):
            if f.has_v:
                raise ProblemError(f"objective {name} must not use v")
        if not self.cone.contains(th):
            raise ProblemError("theta must lie in the ordering cone K")
        if self.norm not in NORMS:
            raise ProblemError(f"unsupported norm {self.norm!r}")

    @property
    def n_objectives(self) -> int:
        return len(self.objectives)

    @property
    def n_constraints(self) -> int:
        return len(self.constraints)

    def objective(self, name: str) -> Expr:
        return self.objectives[self.objective_names.index(name)]

    def constraint(self, name: str) -> UncertainConstraint:
        for c in self.constraints:
            if c.name == name:
                return c
        raise ProblemError(f"no constraint named {name!r}")

    def fixture_for(self, name: str, x) -> PolytopeSet | None:
        """The fixture set of name declared at x, within FIXTURE_TOL."""
        x = np.asarray(x, dtype=float).reshape(-1)
        for fx in self.fixtures:
            if fx.name == name and np.max(np.abs(fx.point - x)) <= FIXTURE_TOL:
                return fx.pset
        return None

    def fvec(self, x) -> np.ndarray:
        return np.array([eval_expr(f, x) for f in self.objectives])

    def fvec_grid(self, X: np.ndarray) -> np.ndarray:
        return np.stack([eval_on_grid(f, X) for f in self.objectives])


# ---------------------------------------------------------------------------
# Scenario maximization
# ---------------------------------------------------------------------------

def golden_max(fn, lo: float, hi: float) -> tuple[float, float]:
    """Golden-section maximization on [lo, hi]; returns (argmax, max)."""
    a, b = lo, hi
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > GOLDEN_TOL:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN * (b - a)
            fd = fn(d)
    xm = 0.5 * (a + b)
    return xm, fn(xm)


def _scan(fn, scan, grid: np.ndarray) -> np.ndarray:
    """fn at every scenario of grid, by scan(grid) where it gives finite
    values, else scenario by scenario."""
    try:
        with np.errstate(all="ignore"):
            vals = scan(grid)
        if np.isfinite(vals).all():
            return vals
    except DomainError:
        pass
    return np.array([fn(t) for t in grid.tolist()])


def active_scenarios_interval(fn, scan, lo: float, hi: float,
                              n: int) -> tuple[float, list[float]]:
    """The envelope maximum and the scenarios within SCENARIO_TOL of it.

    One scan of n grid points gives the maximum: the best of the grid's
    best value, its golden-section refinement and the two endpoints.  Grid
    candidates are clustered and each cluster refined by golden section;
    a flat plateau over the whole interval is reported by its endpoints.
    When the refinement beats every grid value by more than SCENARIO_TOL,
    no cluster forms and the maximiser stands alone.
    """
    if hi <= lo:
        return fn(lo), [lo]
    grid = np.linspace(lo, hi, n)
    vals = _scan(fn, scan, grid)

    @cache
    def refine(a: int, b: int) -> tuple[float, float]:
        """golden_max on [grid[a], grid[b]], once per bracket."""
        return golden_max(fn, float(grid[a]), float(grid[b]))

    k = int(np.argmax(vals))
    xm, fm = refine(max(k - 1, 0), min(k + 1, n - 1))
    candidates = [(vals[k], float(grid[k])), (fm, xm),
                  (vals[0], float(grid[0])), (vals[-1], float(grid[-1]))]
    best = max(candidates, key=lambda t: t[0])
    phi, argmax = float(best[0]), float(best[1])
    step = (hi - lo) / (n - 1)
    # runs of scenarios within SCENARIO_TOL, as (first, last) index pairs
    edges = np.flatnonzero(np.diff(vals >= phi - SCENARIO_TOL,
                                   prepend=False, append=False)).tolist()
    clusters = list(zip(edges[::2], [j - 1 for j in edges[1::2]]))
    reps: list[float] = []
    for i, j in clusters:
        span = grid[j] - grid[i]
        flat = float(np.max(vals[i:j + 1]) - np.min(vals[i:j + 1])) <= 1e-12
        if flat and span >= (hi - lo) - 2 * step:
            reps.extend([float(grid[i]), float(grid[j])])
            continue
        xm, fm = refine(max(i - 1, 0), min(j + 1, n - 1))
        best = xm if fm >= vals[i:j + 1].max() else float(grid[i:j + 1][
            int(np.argmax(vals[i:j + 1]))])
        reps.append(best)
    if not clusters:
        reps.append(argmax)
    merged: list[float] = []
    for r in sorted(reps):
        if not merged or abs(r - merged[-1]) > 1e-6:
            merged.append(r)
    out = [r for r in merged if abs(fn(r) - phi) <= SCENARIO_TOL]
    return phi, out if out else [merged[0]]


# ---------------------------------------------------------------------------
# The point envelope
# ---------------------------------------------------------------------------

def scenario_envelope(con: UncertainConstraint, x,
                      vgrid: int) -> tuple[float, list[float]]:
    """phi_i(x) = max_v g_i(x, v) and the scenarios attaining it within
    SCENARIO_TOL, from one scan of the declared scenario list or interval.
    A v-free constraint has the single dummy scenario 0."""
    if not con.expr.has_v:
        return eval_expr(con.expr, x), [0.0]
    xl = _floats(x)
    fn, scan = partial(con.expr.scalar_fn, xl), partial(con.expr.scan_fn, xl)
    if con.scenarios is not None:
        vals = _scan(fn, scan, np.array(con.scenarios, dtype=float)).tolist()
        top = max(vals)
        return top, [v for v, fv in zip(con.scenarios, vals)
                     if fv >= top - SCENARIO_TOL]
    return active_scenarios_interval(fn, scan, con.lo, con.hi, vgrid)


class ActiveSets(NamedTuple):
    phis: tuple[float, ...]          # phi_i(x)
    phi: float                       # max_i phi_i(x)
    scenarios: tuple[tuple[float, ...], ...]  # V_i(x) representatives
    index_set: tuple[int, ...]       # I(x) = argmax envelope, 1-based


def compute_active_sets(spec: ProblemSpec, x) -> ActiveSets:
    """Every constraint's envelope and active scenarios at x, one scan
    each; phi is -inf without constraints."""
    envs = [scenario_envelope(con, x, spec.vgrid) for con in spec.constraints]
    phis = tuple(p for p, _ in envs)
    top = max(phis) if phis else -math.inf
    idx = tuple(i + 1 for i, p in enumerate(phis) if p >= top - spec.feas_tol)
    scen = tuple(tuple(actives) for _, actives in envs)
    return ActiveSets(phis, top, scen, idx)


def feasible_active_sets(spec: ProblemSpec, x) -> ActiveSets | None:
    """compute_active_sets at x, or None unless x is robust-feasible: in
    the ground set, with every envelope at most feas_tol."""
    if not spec.omega.contains(x):
        return None
    acts = compute_active_sets(spec, x)
    return acts if acts.phi <= spec.feas_tol else None


# ---------------------------------------------------------------------------
# Vectorized feasibility and rasters
# ---------------------------------------------------------------------------

def _scenario_grid(con: UncertainConstraint, vgrid: int) -> np.ndarray:
    if con.scenarios is not None:
        return np.asarray(con.scenarios, dtype=float)
    return np.linspace(con.lo, con.hi, vgrid)


def envelope_grid(spec: ProblemSpec, con: UncertainConstraint,
                  X: np.ndarray) -> np.ndarray:
    """phi_i over grid columns: np.fmax from -inf of the grid code's
    values at each scenario of the scenario grid."""
    if not con.expr.has_v:
        return eval_on_grid(con.expr, X)
    X = np.asarray(X, dtype=float)
    scenarios = map(float, _scenario_grid(con, spec.vgrid))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return reduce(np.fmax, con.expr.grid_fn(X, scenarios),
                      np.full(X.shape[1], -np.inf))


# Unit roundoff; below _CAP no product of a branch overflows.
_U, _CAP = 2.0 ** -53, 2.0 ** 1000


def _hull_bound(spec: ProblemSpec, con: UncertainConstraint, X):
    """(P, delta_max, band) over the cells of the grid X, or None;
    band(cells) is delta at an index tuple's cells, every cell by default."""
    sides = con.expr.has_v and _scenario_sides(con, spec.vgrid)
    if not sides:
        return None
    grid, shape = {}, np.broadcast_shapes(*map(np.shape, X))
    P, widest, bands = zip(*[_branch_bound(*side, X, grid, shape)
                             for side in sides])
    return reduce(np.maximum, P), reduce(np.maximum, widest), \
        lambda cells=...: reduce(np.maximum, [b(cells) for b in bands])


@lru_cache(maxsize=64)
def _scenario_sides(con: UncertainConstraint, vgrid: int):
    """What no cell changes in con's hull bound, per branch: its terms,
    the v factors' caps and, where a(v) and b(v) are finite, the upper
    hull of the (a_j, b_j), its slope steps and slack.  A NaN v factor
    skips its scenario, as the scan does; an infinite one, the bound."""
    branches = separable_branches(con.expr)
    if branches is None:
        return None
    vals = {f: None for terms, _ in branches for withv, _ in terms
            for f in withv}
    V = np.array([eval_scenarios(f, _scenario_grid(con, vgrid))
                  for f in vals])
    live = ~np.isnan(V).any(axis=0)
    if not live.any() or np.isinf(V[:, live]).any():
        return None
    V = V[:, live]
    vals, sides = dict(zip(vals, V)), []
    caps = {f: max(1.0, float(np.max(np.abs(x)))) for f, x in vals.items()}
    for terms, feature in branches:
        b = np.zeros(V.shape[1])
        for withv, rest in terms:
            if withv and not any(map(contains_coord, rest)):
                b = b + reduce(mul, [eval_scenarios(f, [0.0])[0]
                                     for f in rest], 1.0) \
                    * reduce(mul, [vals[f] for f in withv], 1.0)
        a = np.prod([vals[f] for f in feature], axis=0) if feature \
            else 0.0 * b
        hull = None
        if np.isfinite(a).all() and np.isfinite(b).all():
            k = upper_hull(a, b)
            s = np.diff(b[k]) / np.diff(a[k])
            hull = a[k], b[k], np.maximum.accumulate(-s), float(np.sum(
                np.diff(a[k]) * np.maximum.accumulate(np.abs(s))))
        sides.append((terms, caps, hull))
    return sides


def _branch_bound(terms, caps, hull, X, grid, shape):
    """P = c + max_j (a_j*h + b_j) by a tangent query on the upper hull of
    the scenario points (a_j, b_j), delta_max, and delta at cells."""
    c = h = 0.0
    for withv, rest in terms:
        xpart = 1.0
        for f in rest:
            if f not in grid:
                grid[f] = _on_grid(f, X) if contains_coord(f) else \
                    eval_scenarios(f, [0.0])[0]
            xpart = xpart * grid[f]
        if not withv:
            c = c + xpart
        elif any(contains_coord(f) for f in rest):
            h = h + xpart
    if hull is None:
        return np.nan, np.inf, lambda cells: np.inf  # a product overflows
    ak, bk, steps, slack = hull
    n_ops = len(terms) + max(len(w) + len(r) for w, r in terms)

    def delta(cap):
        C = sum(reduce(mul, map(caps.get, withv), reduce(
            mul, [cap(grid[f]) for f in rest], 1.0)) for withv, rest in terms)
        return np.where(C <= _CAP, _U * ((4 * n_ops + 8) * C + 4 * slack),
                        np.inf)

    return c + _tangent(ak, bk, steps, h), delta(lambda f: np.fmax.reduce(
        np.abs(f), axis=None, initial=1.0)), lambda cells: delta(
        lambda f: np.maximum(1.0, np.abs(np.broadcast_to(f, shape)[cells])))


def _tangent(ak, bk, steps, h):
    """ak[j]*h + bk[j] for j = np.searchsorted(steps, h).  Only the cells
    between the first and the last step are searched; the others take the
    first or (above, or NaN) the last vertex."""
    if not (steps.size and np.ndim(h) and steps[-1] >= steps[0]):  # NaN step
        j = np.searchsorted(steps, h)
        return ak[j] * h + bk[j]
    top, inner = ~(h <= steps[-1]), (h > steps[0]) & (h <= steps[-1])
    T = ak[0] * h + bk[0]
    T[top] = ak[-1] * h[top] + bk[-1]
    j = np.searchsorted(steps, h[inner])
    T[inner] = ak[j] * h[inner] + bk[j]
    return T


def feasibility_mask(spec: ProblemSpec, X) -> np.ndarray:
    """Boolean feasibility over the cells of X, coordinate arrays that
    broadcast together (a dense (d, N) array or a raster's open mesh), in
    their shape (envelopes <= spec.feas_tol); NaN envelopes mean
    infeasible.  Cells outside each hull bound's widest band are decided
    by it, then those outside their own band; the rest, while still
    feasible, by envelope_grid on dense columns."""
    X, tol = [np.asarray(x, dtype=float) for x in X], spec.feas_tol
    ok = spec.omega.contains_grid(X)
    for con in spec.constraints:
        P, delta, band = _hull_bound(spec, con, X) or (np.nan, np.inf, None)
        over = np.subtract(P, tol)
        ok &= ~(over > delta)
        cells = np.unravel_index(np.flatnonzero(ok & ~(over < -delta)),
                                 ok.shape)
        if band and cells[0].size:
            over = np.broadcast_to(over, ok.shape)[cells]
            delta = band(cells)
            ok[tuple(i[over > delta] for i in cells)] = False
            cells = tuple(i[~(np.abs(over) > delta)] for i in cells)
        if cells[0].size:
            env = envelope_grid(spec, con, np.array(
                [np.broadcast_to(x, ok.shape)[cells] for x in X]))
            ok[cells] = ~np.isnan(env) & (env <= tol)
    return ok


class Raster(NamedTuple):
    x1: np.ndarray          # axis values, length n1
    x2: np.ndarray          # axis values, length n2
    feasible: np.ndarray    # shape (n1, n2), row-major over (x1, x2)

    def to_csv(self) -> str:
        # Each axis value is formatted once, with either flag; an x1 row is
        # its head, then slices of the 0- or 1-tails cut at flag changes,
        # joined by that head.
        tails = [[f",{float(b)!r},{f}\n" for b in self.x2] for f in (0, 1)]
        rows, n2, F = ["x1,x2,feasible\n"], self.x2.size, self.feasible
        row, col = np.divmod(np.flatnonzero(F[:, 1:] != F[:, :-1]),
                             max(n2 - 1, 1))
        for a, flags, changes in zip(self.x1, F if n2 else (), np.split(
                col + 1, np.searchsorted(row, range(1, len(F))))):
            flag, parts, cuts = int(flags[0]), [], [0, *changes.tolist(), n2]
            for start, stop in zip(cuts, cuts[1:]):
                parts += tails[flag][start:stop]
                flag = 1 - flag
            head = repr(float(a))
            rows += [head, head.join(parts)]
        return "".join(rows)


def raster(spec: ProblemSpec, region, resolution) -> Raster:
    """Feasibility raster over a 2-D box region, on its open mesh.

    region is (x1_lo, x1_hi, x2_lo, x2_hi); resolution an int or (n1, n2).
    """
    if spec.dim != 2:
        raise ProblemError("raster output requires dimension 2")
    if isinstance(resolution, int):
        n1 = n2 = resolution
    else:
        n1, n2 = resolution
    if n1 * n2 > CELLS_LIMIT:
        raise ProblemError(f"a {n1} x {n2} raster has {n1 * n2} cells, "
                           f"over the limit {CELLS_LIMIT}")
    a1, b1, a2, b2 = [float(t) for t in region]
    x1, x2 = np.linspace(a1, b1, n1), np.linspace(a2, b2, n2)
    mesh = np.meshgrid(x1, x2, indexing="ij", sparse=True)
    return Raster(x1, x2, feasibility_mask(spec, mesh))


# ---------------------------------------------------------------------------
# The scalarized merit function
# ---------------------------------------------------------------------------

class Psi:
    """psi(x) = max{<y*, f(x) - f(xbar) + theta>, phi(x)} on grid columns."""

    def __init__(self, spec: ProblemSpec, ystar, xbar):
        ystar = np.asarray(ystar, dtype=float).reshape(-1)
        if not spec.cone.contains(ystar):
            raise ProblemError("ystar must lie in the dual cone K+")
        self.spec = spec
        self.ystar = ystar
        self.xbar = np.asarray(xbar, dtype=float).reshape(-1)
        self.f_bar = spec.fvec(self.xbar)

    def candidate_keys(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The columns of X that can hold the least key np.round(psi, 12),
        and their exact keys.  Open cells (first, P or delta NaN, or delta
        infinite) are rescanned by envelope_grid, bit-equal on any columns."""
        spec, n = self.spec, X.shape[1]
        first = np.tensordot(self.ystar, spec.fvec_grid(X) - (
            self.f_bar - spec.theta)[:, None], axes=(0, 0))
        if not spec.constraints:
            return np.arange(n), np.round(first, 12)
        lo = hi = np.full(n, -np.inf)
        opened = np.isnan(first)
        with np.errstate(invalid="ignore", over="ignore"):
            for con in spec.constraints:
                P, _, band = _hull_bound(spec, con, X) or (
                    envelope_grid(spec, con, X), 0.0, lambda: 0.0)
                delta = band()
                opened = opened | np.isnan(P) | ~np.isfinite(delta)
                lo, hi = np.fmax(lo, P - delta), np.fmax(hi, P + delta)
            keys = np.round(np.fmax(first, lo), 12)
            top = np.round(np.fmax(first, hi), 12)
        keep = ~(keys > np.min(top, where=~opened, initial=np.inf))
        cells = np.flatnonzero(keep & (opened | (keys != top)))
        if cells.size:
            env = reduce(np.fmax, [envelope_grid(spec, con, X[:, cells])
                                   for con in spec.constraints],
                         np.full(cells.size, -np.inf))
            keys[cells] = np.round(np.fmax(first[cells], env), 12)
        return np.flatnonzero(keep), keys[keep]
