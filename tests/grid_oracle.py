"""The grid envelope and feasibility mask as they stood before the hoisted
scan and the hull bound: every scenario evaluates the whole constraint tree
over the whole grid, and the mask reads that running max at every cell.
Kept verbatim as the oracle of ``tests/test_grid_scan.py``, which asserts
bit-equal envelopes and equal masks.  ``hull_bound`` is the hull bound
(P, delta) as it stood before its scenario side was cached per constraint
(``robustfeas._scenario_sides``): it rebuilds the v factors and their
upper hull on every call.  ``psi_on_grid`` is the merit function
``Psi.on_grid`` that ``fuzzy`` minimised over every cell before it read
only the cells its hull bound leaves in play (``Psi.candidate_keys``).
``classify_point`` (with ``_kind_params``) is the efficiency sweep as it
stood before it read the objectives on the raster's open mesh: it
evaluates them on the dense columns of the feasible cells (its d != 2
samples are masked by ``robustfeas.feasibility_mask``, as this module's
mask is the full scan), and it builds the whole (p, N) relation matrix and
tests it by ``_membership_mask`` before it keeps one column.
``weak_violation`` is that full-matrix relation as ``weak_duality_check``
tested it for one triple over all its samples.  ``to_csv`` is
``Raster.to_csv`` as it stood before it joined slices of runs of equal
flags: it picks each cell's tail by ``np.where`` over object arrays.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

from robustkkt import robustfeas
from robustkkt.funcdsl import (
    Expr,
    _check_scenario,
    contains_coord,
    eval_scenarios,
    separable_branches,
)
from robustkkt.robustfeas import _CAP, _U, CELLS_LIMIT, Psi, ProblemSpec, \
    Raster, UncertainConstraint, feasible_active_sets, raster
from robustkkt.setcalc import norm_grid, upper_hull
from robustkkt.verify import ZERO_TOL, EfficiencyVerdict, VerifyError


def eval_on_grid(e: Expr, X: np.ndarray, v=None) -> np.ndarray:
    """Vectorized evaluation over columns of X (shape (d, N)).

    Domain violations yield NaN entries instead of raising; callers treat
    NaN as "undefined here" (a raster cell with NaN is reported infeasible).
    """
    _check_scenario(e, v)
    X = np.asarray(X, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = _eval_grid(e, X, v)
    return np.broadcast_to(out, X.shape[1:]).copy() if np.ndim(out) == 0 else out


def _eval_grid(e: Expr, X: np.ndarray, v):
    k = e.kind
    if k == "const":
        return float(e.value)
    if k == "coord":
        return X[e.index - 1]
    if k == "uvar":
        return v
    if k == "sum":
        out = _eval_grid(e.children[0], X, v)
        for c in e.children[1:]:
            out = out + _eval_grid(c, X, v)
        return out
    if k == "prod":
        out = _eval_grid(e.children[0], X, v)
        for c in e.children[1:]:
            out = out * _eval_grid(c, X, v)
        return out
    if k == "pow":
        return _eval_grid(e.children[0], X, v) ** e.exponent
    if k == "recip":
        d = np.asarray(_eval_grid(e.children[0], X, v), dtype=float)
        return np.where(d == 0.0, np.nan, 1.0) / np.where(d == 0.0, 1.0, d)
    if k == "sqrt":
        a = np.asarray(_eval_grid(e.children[0], X, v), dtype=float)
        return np.sqrt(np.where(a < 0.0, np.nan, a))
    if k == "abs":
        return np.abs(_eval_grid(e.children[0], X, v))
    if k == "max":
        out = _eval_grid(e.children[0], X, v)
        for c in e.children[1:]:
            out = np.maximum(out, _eval_grid(c, X, v))
        return out
    raise ValueError(f"unknown node kind {k}")


def envelope_grid(spec: ProblemSpec, con: UncertainConstraint,
                  X: np.ndarray) -> np.ndarray:
    """phi_i over grid columns, by running max across the scenario grid."""
    if not con.expr.has_v:
        return eval_on_grid(con.expr, X)
    if con.scenarios is not None:
        vgrid = np.asarray(con.scenarios, dtype=float)
    else:
        vgrid = np.linspace(con.lo, con.hi, spec.vgrid)
    out = np.full(X.shape[1], -np.inf)
    for v in vgrid:
        out = np.fmax(out, eval_on_grid(con.expr, X, float(v)))
    return out


def feasibility_mask(spec: ProblemSpec, X: np.ndarray) -> np.ndarray:
    """Boolean feasibility per grid column; NaN envelopes mean infeasible."""
    tol = spec.feas_tol
    ok = spec.omega.contains_grid(X)
    for con in spec.constraints:
        env = envelope_grid(spec, con, X)
        ok &= ~np.isnan(env) & (env <= tol)
    return ok


def psi_on_grid(self: Psi, X: np.ndarray) -> np.ndarray:
    """psi(x) = max{<y*, f(x) - f(xbar) + theta>, phi(x)} on grid columns."""
    F = self.spec.fvec_grid(X)
    first = np.tensordot(self.ystar, F - (self.f_bar - self.spec.theta)[:, None],
                         axes=(0, 0))
    env = np.full(X.shape[1], -np.inf)
    for con in self.spec.constraints:
        env = np.fmax(env, envelope_grid(self.spec, con, X))
    if not self.spec.constraints:
        return first
    return np.fmax(first, env)


def hull_bound(spec: ProblemSpec, con: UncertainConstraint, X: np.ndarray):
    """(P, delta) with |P - envelope_grid| <= delta where delta is finite,
    or None, over the columns of X."""
    branches = separable_branches(con.expr) if con.expr.has_v else None
    if branches is None:
        return None
    vals = {f: None for terms, _ in branches for withv, _ in terms
            for f in withv}
    vgrid = np.asarray(con.scenarios, dtype=float) if con.scenarios \
        is not None else np.linspace(con.lo, con.hi, spec.vgrid)
    V = np.array([eval_scenarios(f, vgrid) for f in vals])
    live = ~np.isnan(V).any(axis=0)
    if not live.any() or np.isinf(V[:, live]).any():
        return None
    vals, grid = dict(zip(vals, V[:, live])), {}
    P, delta = zip(*[_branch_bound(*br, X, vals, grid) for br in branches])
    return reduce(np.maximum, P), reduce(np.maximum, delta)


def _branch_bound(terms, feature, X, vals, grid):
    b = np.zeros(len(next(iter(vals.values()))))
    c = h = cap = 0.0
    for withv, rest in terms:
        xpart = vpart = term_cap = 1.0
        for f in rest:
            if f not in grid:
                grid[f] = eval_on_grid(f, X) if contains_coord(f) else \
                    eval_scenarios(f, [0.0])[0]
            xpart = xpart * grid[f]
            term_cap = term_cap * np.maximum(1.0, np.abs(grid[f]))
        for f in withv:
            vpart = vpart * vals[f]
            term_cap = term_cap * max(1.0, float(np.max(np.abs(vals[f]))))
        cap = cap + term_cap
        if not withv:
            c = c + xpart
        elif any(contains_coord(f) for f in rest):
            h = h + xpart
        else:
            b = b + xpart * vpart
    a = np.prod([vals[f] for f in feature], axis=0) if feature else 0.0 * b
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        return np.nan, np.inf
    k = upper_hull(a, b)
    ak, bk = a[k], b[k]
    s = np.diff(bk) / np.diff(ak)
    j = np.searchsorted(np.maximum.accumulate(-s), h)
    slack = float(np.sum(np.diff(ak) * np.maximum.accumulate(np.abs(s))))
    n_ops = len(terms) + max(len(w) + len(r) for w, r in terms)
    return c + (ak[j] * h + bk[j]), np.where(
        cap <= _CAP, _U * ((4 * n_ops + 8) * cap + 4 * slack), np.inf)


def _membership_mask(D: np.ndarray, cone, region: str) -> np.ndarray:
    """Membership of the columns of D (shape (p, N)) in -int K (region
    "minus-int-K") or in -K \\ {0} (region "minus-K-minus-0")."""
    s = np.asarray(cone.pattern, dtype=float)[:, None]
    if region == "minus-int-K":
        return np.all(s * D < -ZERO_TOL, axis=0)
    Dz = np.where(np.abs(D) <= ZERO_TOL, 0.0, D)
    return np.all(s * Dz <= 0.0, axis=0) & np.any(Dz != 0.0, axis=0)


def weak_violation(spec: ProblemSpec, samples: np.ndarray, z: np.ndarray,
                   kind: str):
    """The first sample x (a row of samples) at which f(x) - f(z) +
    ||x - z|| theta lies in -int K (kind I) or -K \\ {0} (kind II), as
    (x, relation), or None."""
    memb_region = "minus-int-K" if kind == "I" else "minus-K-minus-0"
    F = spec.fvec_grid(samples.T)
    fz = spec.fvec(z)
    dist = norm_grid(spec.norm, samples.T - z[:, None])
    D = F - fz[:, None] + np.outer(spec.theta, dist)
    bad = _membership_mask(D, spec.cone, memb_region)
    if np.any(bad):
        t = int(np.argmax(bad))
        return samples[t], D[:, t]
    return None


def _kind_params(kind: str) -> tuple[bool, str]:
    if kind == "efficient":
        return False, "minus-K-minus-0"
    if kind == "weak":
        return False, "minus-int-K"
    if kind == "quasi":
        return True, "minus-K-minus-0"
    if kind == "weak-quasi":
        return True, "minus-int-K"
    raise VerifyError(f"unknown efficiency kind {kind!r}")


def classify_point(spec: ProblemSpec, xbar, kind: str, region,
                   resolution: int = 401) -> EfficiencyVerdict:
    """Scan feasible samples for a violation of the chosen solution notion.

    In dimension 2 samples form a raster over ``region``; other dimensions
    draw ``resolution`` uniform samples from the region box (seeded).
    """
    quasi, memb_region = _kind_params(kind)
    xbar = np.asarray(xbar, dtype=float).reshape(-1)
    if feasible_active_sets(spec, xbar) is None:
        raise VerifyError("classification point must be robust-feasible")
    if spec.dim == 2:
        r = raster(spec, region, resolution)
        i1, i2 = np.nonzero(r.feasible)  # row-major, as the raster's CSV
        Xf = np.vstack([r.x1[i1], r.x2[i2]])
    else:
        if resolution > CELLS_LIMIT:
            raise VerifyError(
                f"{resolution} samples exceed the limit {CELLS_LIMIT}")
        lo = np.asarray(region[0::2], dtype=float)
        hi = np.asarray(region[1::2], dtype=float)
        rng = np.random.default_rng(spec.seed)
        X = (lo[:, None] + (hi - lo)[:, None]
             * rng.random((spec.dim, resolution)))
        Xf = X[:, robustfeas.feasibility_mask(spec, X)]
    if Xf.shape[1] == 0:
        return EfficiencyVerdict(kind, True, None, None, tuple(region),
                                 resolution, 0)
    F = spec.fvec_grid(Xf)
    fbar = spec.fvec(xbar)
    if quasi:
        c = norm_grid(spec.norm, Xf - xbar[:, None])
    else:
        c = np.ones(Xf.shape[1])
    D = F - fbar[:, None] + np.outer(spec.theta, c)
    bad = _membership_mask(D, spec.cone, memb_region)
    if not np.any(bad):
        return EfficiencyVerdict(kind, True, None, None, tuple(region),
                                 resolution, int(Xf.shape[1]))
    t = int(np.argmax(bad))  # first violation in deterministic scan order
    return EfficiencyVerdict(kind, False, Xf[:, t].copy(), D[:, t].copy(),
                             tuple(region), resolution, int(Xf.shape[1]))


def to_csv(self: Raster) -> str:
    # Each axis value is formatted once, with either flag; an x1 row is
    # its head, then the tails its flags pick joined by that head.
    rows = ["x1,x2,feasible\n"]
    zeros, ones = [np.array([f",{float(b)!r},{f}\n" for b in self.x2],
                            dtype=object) for f in (0, 1)]
    for a, flags in zip(self.x1, self.feasible if self.x2.size else ()):
        head = repr(float(a))
        rows += [head, head.join(np.where(flags, ones, zeros))]
    return "".join(rows)
