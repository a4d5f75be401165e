"""Worst-case constraint envelopes, robust feasibility and rasters.

Each uncertain constraint g_i(x, v) carries a one-dimensional scenario
interval (or a finite scenario list).  The envelope phi_i(x) is the exact
worst case over scenarios, computed by a dense grid plus golden-section
refinement; rasters vectorize the same maximization across a 2-D grid.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .funcdsl import (
    Expr,
    contains_uncertainty,
    eval_expr,
    eval_on_grid,
    scenario_fn,
)
from .setcalc import ConeSpec, OmegaSpec, PolytopeSet

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

DEFAULT_VGRID = 1001
DEFAULT_FEAS_TOL = 1e-8
DEFAULT_KINK_TOL = 1e-9


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
        if contains_uncertainty(self.expr):
            interval = self.lo is not None and self.hi is not None
            if not interval and not self.scenarios:
                raise ProblemError(
                    f"constraint {self.name} uses v but declares no scenarios")
            if interval and self.lo > self.hi:
                raise ProblemError(f"constraint {self.name}: empty interval")
        # v-free constraints are treated as a single dummy scenario

    @property
    def has_uncertainty(self) -> bool:
        return contains_uncertainty(self.expr)


@dataclass(frozen=True)
class FixtureSet:
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
            if contains_uncertainty(f):
                raise ProblemError(f"objective {name} must not use v")
        if not self.cone.contains(th):
            raise ProblemError("theta must lie in the ordering cone K")
        if self.norm not in ("l1", "l2", "linf"):
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
        raise KeyError(name)

    def fixture_for(self, name: str, x, tol: float = 1e-9) -> PolytopeSet | None:
        x = np.asarray(x, dtype=float).reshape(-1)
        for fx in self.fixtures:
            if fx.name == name and np.max(np.abs(fx.point - x)) <= tol:
                return fx.pset
        return None

    def fvec(self, x) -> np.ndarray:
        return np.array([eval_expr(f, x) for f in self.objectives])

    def fvec_grid(self, X: np.ndarray) -> np.ndarray:
        return np.stack([eval_on_grid(f, X) for f in self.objectives])

    def primal_norm(self, w) -> float:
        w = np.asarray(w, dtype=float).reshape(-1)
        if self.norm == "l1":
            return float(np.sum(np.abs(w)))
        if self.norm == "linf":
            return float(np.max(np.abs(w), initial=0.0))
        return float(np.linalg.norm(w))

    def primal_norm_grid(self, D: np.ndarray) -> np.ndarray:
        if self.norm == "l1":
            return np.sum(np.abs(D), axis=0)
        if self.norm == "linf":
            return np.max(np.abs(D), axis=0)
        return np.sqrt(np.sum(D * D, axis=0))


def worker_count() -> int:
    raw = os.environ.get("ROBUSTKKT_THREADS", "")
    try:
        n = int(raw)
    except ValueError:
        n = 1
    return max(1, n)


# ---------------------------------------------------------------------------
# Scenario maximization
# ---------------------------------------------------------------------------

def golden_max(fn, lo: float, hi: float, tol: float = 1e-10) -> tuple[float, float]:
    """Golden-section maximization on [lo, hi]; returns (argmax, max)."""
    a, b = lo, hi
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > tol:
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


def maximize_scenario(fn, lo: float, hi: float, n: int = DEFAULT_VGRID,
                      refine_tol: float = 1e-10) -> tuple[float, float]:
    """Grid scan plus golden-section refinement; returns (max, argmax)."""
    if hi <= lo:
        return fn(lo), lo
    return _refine_max(fn, *_scan(fn, lo, hi, n), refine_tol)


def _scan(fn, lo: float, hi: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    grid = np.linspace(lo, hi, n)
    return grid, np.array([fn(t) for t in grid.tolist()])


def _refine_max(fn, grid: np.ndarray, vals: np.ndarray,
                refine_tol: float) -> tuple[float, float]:
    """Golden-section refinement around the best value of a grid scan."""
    n = grid.shape[0]
    k = int(np.argmax(vals))
    a = grid[max(k - 1, 0)]
    b = grid[min(k + 1, n - 1)]
    xm, fm = golden_max(fn, float(a), float(b), refine_tol)
    candidates = [(vals[k], float(grid[k])), (fm, xm),
                  (vals[0], float(grid[0])), (vals[-1], float(grid[-1]))]
    best = max(candidates, key=lambda t: t[0])
    return float(best[0]), float(best[1])


def active_scenarios_interval(fn, lo: float, hi: float, tol: float,
                              n: int = DEFAULT_VGRID,
                              merge_radius: float = 1e-6) -> tuple[float, list[float]]:
    """The envelope maximum and all scenario values within tol of it.

    Grid candidates are clustered; each cluster is refined by golden
    section.  A cluster that spans the whole interval as a flat plateau is
    reported by its endpoints.  When the refinement beats every grid value
    by more than tol, no cluster forms and the maximiser stands alone.
    """
    if hi <= lo:
        return fn(lo), [lo]
    grid, vals = _scan(fn, lo, hi, n)
    phi, argmax = _refine_max(fn, grid, vals, 1e-10)
    mask = vals >= phi - tol
    step = (hi - lo) / (n - 1)
    clusters: list[tuple[int, int]] = []
    i = 0
    while i < n:
        if mask[i]:
            j = i
            while j + 1 < n and mask[j + 1]:
                j += 1
            clusters.append((i, j))
            i = j + 1
        else:
            i += 1
    reps: list[float] = []
    for i, j in clusters:
        span = grid[j] - grid[i]
        flat = float(np.max(vals[i:j + 1]) - np.min(vals[i:j + 1])) <= 1e-12
        if flat and span >= (hi - lo) - 2 * step:
            reps.extend([float(grid[i]), float(grid[j])])
            continue
        a = float(grid[max(i - 1, 0)])
        b = float(grid[min(j + 1, n - 1)])
        xm, fm = golden_max(fn, a, b, 1e-10)
        best = xm if fm >= vals[i:j + 1].max() else float(grid[i:j + 1][
            int(np.argmax(vals[i:j + 1]))])
        reps.append(best)
    if not clusters:
        reps.append(argmax)
    merged: list[float] = []
    for r in sorted(reps):
        if not merged or abs(r - merged[-1]) > merge_radius:
            merged.append(r)
    out = [r for r in merged if abs(fn(r) - phi) <= max(tol, 1e-9)]
    return phi, out if out else [merged[0]]


# ---------------------------------------------------------------------------
# Envelopes and feasibility
# ---------------------------------------------------------------------------

def phi_i(spec: ProblemSpec, i: int, x) -> float:
    """Worst-case envelope of constraint i (1-based) at x."""
    con = spec.constraints[i - 1]
    if not con.has_uncertainty:
        return eval_expr(con.expr, x)
    fn = scenario_fn(con.expr, x)
    if con.scenarios is not None:
        return max(fn(v) for v in con.scenarios)
    phi, _ = maximize_scenario(fn, con.lo, con.hi, spec.vgrid)
    return phi


def active_uncertainty(spec: ProblemSpec, i: int, x,
                       tol: float = 1e-6) -> list[float]:
    """Scenario values attaining the envelope of constraint i at x."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    if not spec.constraints[i - 1].has_uncertainty:
        return [0.0]
    return _envelope_and_actives(spec.constraints[i - 1], x, tol,
                                 spec.vgrid)[1]


def _envelope_and_actives(con: UncertainConstraint, x, tol: float,
                          vgrid: int) -> tuple[float, list[float]]:
    """The envelope of con at x and the scenario values attaining it, from
    one scan of its declared scenario list or interval."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    if not con.has_uncertainty:
        return eval_expr(con.expr, x), [0.0]
    fn = scenario_fn(con.expr, x)
    if con.scenarios is not None:
        vals = [fn(v) for v in con.scenarios]
        top = max(vals)
        return top, [v for v, fv in zip(con.scenarios, vals) if fv >= top - tol]
    return active_scenarios_interval(fn, con.lo, con.hi, tol, vgrid)


def phi(spec: ProblemSpec, x) -> float:
    if not spec.constraints:
        return -math.inf
    return max(phi_i(spec, i, x) for i in range(1, spec.n_constraints + 1))


def is_feasible(spec: ProblemSpec, x, tol: float | None = None) -> bool:
    tol = spec.feas_tol if tol is None else tol
    if not spec.omega.contains(x):
        return False
    if not spec.constraints:
        return True
    return phi(spec, x) <= tol


@dataclass(frozen=True)
class ActiveSets:
    phis: tuple[float, ...]          # phi_i(x)
    phi: float                       # max_i phi_i(x)
    scenarios: tuple[tuple[float, ...], ...]  # V_i(x) representatives
    index_set: tuple[int, ...]       # I(x) = argmax envelope, 1-based


def compute_active_sets(spec: ProblemSpec, x, tol: float = 1e-6) -> ActiveSets:
    envs = [_envelope_and_actives(con, x, tol, spec.vgrid)
            for con in spec.constraints]
    phis = tuple(p for p, _ in envs)
    top = max(phis) if phis else -math.inf
    idx = tuple(i + 1 for i, p in enumerate(phis) if p >= top - spec.feas_tol)
    scen = tuple(tuple(actives) for _, actives in envs)
    return ActiveSets(phis, top, scen, idx)


# ---------------------------------------------------------------------------
# Vectorized feasibility and rasters
# ---------------------------------------------------------------------------

def envelope_grid(spec: ProblemSpec, con: UncertainConstraint,
                  X: np.ndarray) -> np.ndarray:
    """phi_i over grid columns, by running max across the scenario grid."""
    if not con.has_uncertainty:
        return eval_on_grid(con.expr, X)
    if con.scenarios is not None:
        vgrid = np.asarray(con.scenarios, dtype=float)
    else:
        vgrid = np.linspace(con.lo, con.hi, spec.vgrid)
    threads = worker_count()

    def scan(chunk: np.ndarray) -> np.ndarray:
        out = np.full(X.shape[1], -np.inf)
        for v in chunk:
            out = np.fmax(out, eval_on_grid(con.expr, X, float(v)))
        return out

    if threads == 1 or vgrid.size < 8:
        return scan(vgrid)
    chunks = np.array_split(vgrid, threads)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        partials = list(pool.map(scan, chunks))
    out = partials[0]
    for p in partials[1:]:
        out = np.fmax(out, p)
    return out


def feasibility_mask(spec: ProblemSpec, X: np.ndarray,
                     tol: float | None = None) -> np.ndarray:
    """Boolean feasibility per grid column; NaN envelopes mean infeasible."""
    tol = spec.feas_tol if tol is None else tol
    ok = spec.omega.contains_grid(X)
    for con in spec.constraints:
        env = envelope_grid(spec, con, X)
        ok &= ~np.isnan(env) & (env <= tol)
    return ok


@dataclass
class Raster:
    x1: np.ndarray          # axis values, length n1
    x2: np.ndarray          # axis values, length n2
    feasible: np.ndarray    # shape (n1, n2), row-major over (x1, x2)

    def to_csv(self) -> str:
        # Each axis value is formatted once, and each x1 row is joined on
        # its own, so only one row's line strings are alive at a time.
        tails = [f",{float(b)!r}," for b in self.x2]
        rows = ["x1,x2,feasible\n"]
        for a, flags in zip(self.x1, self.feasible):
            head = repr(float(a))
            rows.append("".join([f"{head}{tail}{int(f)}\n"
                                 for tail, f in zip(tails, flags.tolist())]))
        return "".join(rows)


def raster(spec: ProblemSpec, region, resolution) -> Raster:
    """Feasibility raster over a 2-D box region.

    region is (x1_lo, x1_hi, x2_lo, x2_hi); resolution an int or (n1, n2).
    """
    if spec.dim != 2:
        raise ProblemError("raster output requires dimension 2")
    if isinstance(resolution, int):
        n1 = n2 = resolution
    else:
        n1, n2 = resolution
    a1, b1, a2, b2 = [float(t) for t in region]
    x1 = np.linspace(a1, b1, n1)
    x2 = np.linspace(a2, b2, n2)
    G1, G2 = np.meshgrid(x1, x2, indexing="ij")
    X = np.vstack([G1.ravel(), G2.ravel()])
    mask = feasibility_mask(spec, X)
    return Raster(x1, x2, mask.reshape(n1, n2))


# ---------------------------------------------------------------------------
# The scalarized merit function
# ---------------------------------------------------------------------------

class Psi:
    """psi(x) = max{ <y*, f(x) - f(xbar) + theta>, phi(x) }."""

    def __init__(self, spec: ProblemSpec, ystar, xbar):
        ystar = np.asarray(ystar, dtype=float).reshape(-1)
        if not spec.cone.dual().contains(ystar):
            raise ProblemError("ystar must lie in the dual cone K+")
        self.spec = spec
        self.ystar = ystar
        self.xbar = np.asarray(xbar, dtype=float).reshape(-1)
        self.f_bar = spec.fvec(self.xbar)

    def __call__(self, x) -> float:
        first = float(np.dot(self.ystar,
                             self.spec.fvec(x) - self.f_bar + self.spec.theta))
        return max(first, phi(self.spec, x))

    def on_grid(self, X: np.ndarray) -> np.ndarray:
        F = self.spec.fvec_grid(X)
        first = np.tensordot(self.ystar, F - (self.f_bar - self.spec.theta)[:, None],
                             axes=(0, 0))
        env = np.full(X.shape[1], -np.inf)
        for con in self.spec.constraints:
            env = np.fmax(env, envelope_grid(self.spec, con, X))
        if not self.spec.constraints:
            return first
        return np.fmax(first, env)
