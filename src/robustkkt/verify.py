"""Brute-force efficiency classification and Mond-Weir duality checks.

Classification rasters the feasible region and tests the defining cone
relation one objective at a time, each on the feasible samples that the
earlier ones left in play; a NO-COUNTEREXAMPLE verdict is always
resolution-qualified, never a proof.  Duality checks reuse the certificate
machinery: dual feasibility is the same zero-membership LP evaluated at
the dual point, and weak/converse duality test the same cone relation
over sampled feasible points.
"""

from __future__ import annotations

from functools import partial
from typing import NamedTuple

import numpy as np

from .certify import CertifyError, multiplier_checks, search_kkt
from .funcdsl import _on_grid, eval_on_grid
from .robustfeas import (
    CELLS_LIMIT,
    ProblemSpec,
    compute_active_sets,
    feasibility_mask,
    feasible_active_sets,
    raster,
)
from .setcalc import (
    PolytopeSet,
    check_selections,
    dual_ball,
    minkowski_sum,
    norm_grid,
    normal_cone,
    scale,
    zero_in_sum,
)
from .subdiff import constraint_set, objective_set

ZERO_TOL = 1e-12
DUAL_TOL = 1e-9  # how negative a complementarity product mu_i * g_i may be

KINDS = ("efficient", "weak", "quasi", "weak-quasi")


class VerifyError(Exception):
    pass


# ---------------------------------------------------------------------------
# Cone relation
# ---------------------------------------------------------------------------

def _first_violation(spec: ProblemSpec, xbar: np.ndarray, quasi: bool,
                     strict: bool, cells: np.ndarray, coords, F0=None):
    """The first of the ascending cells at which
    F(x) - F(xbar) + theta c(x) lies in -int K (strict) or in -K \\ {0},
    with c(x) = ||x - xbar|| if quasi and 1 otherwise, as (x, relation),
    or None.  coords(cells) gives the cells' (d, n) coordinates, and F0,
    if given, the first objective at all the cells.  The relation is
    built and tested one objective at a time, at the cells still in play.
    """
    if not cells.size:
        return None
    fbar, seen, nonzero = spec.fvec(xbar), [], False
    for j, s in enumerate(spec.cone.pattern):
        X = coords(cells) if j or quasi or F0 is None else None
        F = F0 if F0 is not None and not j else \
            eval_on_grid(spec.objectives[j], X)
        D = F - fbar[j] + spec.theta[j] * (
            norm_grid(spec.norm, X - xbar[:, None]) if quasi else 1.0)
        if strict:
            keep = s * D < -ZERO_TOL
        else:
            zero = np.abs(D) <= ZERO_TOL
            keep = zero | (s * D <= 0.0)
            nonzero = (nonzero | ~zero)[keep]
        seen.append((cells, D))
        cells = cells[keep]
        if not cells.size:
            return None
    hits = cells if strict else cells[nonzero]
    if not hits.size:
        return None
    return coords(hits[:1])[:, 0], np.array(
        [D[np.searchsorted(c, hits[0])] for c, D in seen])


# ---------------------------------------------------------------------------
# Efficiency classification
# ---------------------------------------------------------------------------

class EfficiencyVerdict(NamedTuple):
    kind: str
    no_counterexample: bool
    counterexample: np.ndarray | None
    violation: np.ndarray | None
    region: tuple
    resolution: int
    feasible_checked: int


def classify_point(spec: ProblemSpec, xbar, kind: str, region,
                   resolution: int = 401) -> EfficiencyVerdict:
    """Scan feasible samples for a violation of the chosen solution notion.

    In dimension 2 samples form a raster over ``region``, scanned in
    row-major order as the raster's CSV, with the first objective read on
    its open mesh; other dimensions draw ``resolution`` uniform samples
    from the region box (seeded).
    """
    if kind not in KINDS:
        raise VerifyError(f"unknown efficiency kind {kind!r}")
    quasi, strict = "quasi" in kind, kind.startswith("weak")
    xbar = np.asarray(xbar, dtype=float).reshape(-1)
    if feasible_active_sets(spec, xbar) is None:
        raise VerifyError("classification point must be robust-feasible")
    if spec.dim == 2:
        r = raster(spec, region, resolution)
        cells = np.flatnonzero(r.feasible)  # row-major, as the raster's CSV
        mesh = np.meshgrid(r.x1, r.x2, indexing="ij", sparse=True)
        F0 = np.broadcast_to(_on_grid(spec.objectives[0], mesh),
                             r.feasible.shape)[r.feasible]

        def coords(t):
            i1, i2 = np.divmod(t, r.x2.size)
            return np.vstack([r.x1[i1], r.x2[i2]])
    else:
        if resolution > CELLS_LIMIT:
            raise VerifyError(
                f"{resolution} samples exceed the limit {CELLS_LIMIT}")
        lo = np.asarray(region[0::2], dtype=float)
        hi = np.asarray(region[1::2], dtype=float)
        rng = np.random.default_rng(spec.seed)
        X = (lo[:, None] + (hi - lo)[:, None]
             * rng.random((spec.dim, resolution)))
        cells, F0 = np.flatnonzero(feasibility_mask(spec, X)), None
        coords = partial(np.take, X, axis=1)
    hit = _first_violation(spec, xbar, quasi, strict, cells, coords, F0)
    return EfficiencyVerdict(kind, hit is None, *(hit or (None, None)),
                             tuple(region), resolution, int(cells.size))


# ---------------------------------------------------------------------------
# Mond-Weir duality
# ---------------------------------------------------------------------------

class DualTriple(NamedTuple):
    z: np.ndarray
    ystar: np.ndarray
    mu: np.ndarray


class DualFeasReport(NamedTuple):
    feasible: bool
    checks: list[dict]
    witness: list | None = None


def dual_feasible(spec: ProblemSpec, triple: DualTriple,
                  mode: str = "limiting") -> DualFeasReport:
    """Membership of (z, y*, mu) in the Mond-Weir dual feasible set.

    The stationarity inclusion is decided by the zero-in-sum LP with the
    weighted per-objective sets, mu-scaled sup-rule hulls, the dual ball's
    summands scaled by <y*, theta> and the normal cone at z; the signed
    complementarity requires mu_i * g_i(z, v_i) >= -DUAL_TOL at the active
    scenarios.
    """
    z = np.asarray(triple.z, dtype=float).reshape(-1)
    ystar = np.asarray(triple.ystar, dtype=float).reshape(-1)
    mu = np.asarray(triple.mu, dtype=float).reshape(-1)
    mult_ok, checks = multiplier_checks(spec, ystar, mu)
    if not spec.omega.contains(z):
        checks.append({"name": "z_in_omega", "ok": False})
        return DualFeasReport(False, checks)

    objectives = [scale(objective_set(spec, j, z, mode)[0],
                        float(ystar[j - 1]))
                  for j in range(1, spec.n_objectives + 1)]
    parts = []
    acts = compute_active_sets(spec, z)
    comp_ok = True
    for i in range(1, spec.n_constraints + 1):
        S, _ = constraint_set(spec, i, z, acts)
        parts.append(scale(S, float(mu[i - 1])))
        val = float(mu[i - 1]) * acts.phis[i - 1]
        ok = val >= -DUAL_TOL
        comp_ok = comp_ok and ok
        checks.append({"name": f"mu_g_sign_{spec.constraints[i-1].name}",
                       "ok": bool(ok), "value": val})
    radius = float(np.dot(ystar, spec.theta))
    parts.extend(scale(b, radius)
                 for b in dual_ball(spec.norm, spec.dim, spec.ball_facets))
    N = normal_cone(spec.omega, z)
    # The sum of the objectives' unions has the product of their component
    # counts, the count zero_in_sum refuses; refuse it before it is built.
    check_selections(objectives + parts)
    combo = PolytopeSet.singleton(np.zeros(spec.dim))
    for S in objectives:
        combo = minkowski_sum(combo, S)
    parts.insert(0, combo)
    res = zero_in_sum(parts, N)
    checks.append({"name": "stationarity_inclusion", "ok": bool(res.sat)})
    feas = bool(mult_ok and comp_ok and res.sat)
    witness = res.witness_points(parts) if res.sat else None
    return DualFeasReport(feas, checks, witness)


class WeakDualityReport(NamedTuple):
    pairs_checked: int
    violation: dict | None = None  # None: no violation found


def weak_duality_check(spec: ProblemSpec, region, count: int,
                       triples: list[DualTriple], kind: str,
                       mode: str = "limiting") -> WeakDualityReport:
    """Non-domination of f(x) against f(z) - ||x - z|| theta over all pairs
    of the robust-feasible samples x of region (generate_feasible_samples,
    at most count) and dual-feasible triples.

    Kind I uses the weak relation (no violation means f(x) never lands in
    -int K); kind II uses the strict relation via -K \\ {0}.
    """
    if kind not in ("I", "II"):
        raise VerifyError("kind must be 'I' or 'II'")
    for tr in triples:
        if not dual_feasible(spec, tr, mode).feasible:
            raise VerifyError("weak duality requires dual-feasible triples")
    if not triples:  # no pair to check: draw no sample
        return WeakDualityReport(0)
    samples = generate_feasible_samples(spec, region, count)
    cells = np.arange(len(samples))
    for k, tr in enumerate(triples, 1):
        hit = _first_violation(spec, tr.z, True, kind == "I", cells,
                               lambda t: samples[t].T)
        if hit:
            return WeakDualityReport(k * len(samples), {
                "x": hit[0], "triple": tr, "relation_value": hit[1]})
    return WeakDualityReport(len(triples) * len(samples))


def generate_feasible_samples(spec: ProblemSpec, region,
                              count: int) -> np.ndarray:
    """Deterministic rejection sampling of robust-feasible points, seeded
    by the problem's seed: count of them, or as many as 200 batches find."""
    rng = np.random.default_rng(spec.seed)
    lo = np.asarray(region[0::2], dtype=float)
    hi = np.asarray(region[1::2], dtype=float)
    out = []
    for _ in range(200):
        X = lo[:, None] + (hi - lo)[:, None] * rng.random((spec.dim,
                                                           4 * count))
        out.extend(X[:, feasibility_mask(spec, X)].T)
        if len(out) >= count:
            break
    return np.array(out[:count]).reshape(-1, spec.dim)


def strong_duality_from(spec: ProblemSpec, xbar,
                        mode: str = "limiting") -> DualTriple:
    """The dual point (xbar, y*, mu) of a KKT certificate found at xbar."""
    xbar = np.asarray(xbar, dtype=float).reshape(-1)
    cert = search_kkt(spec, xbar, mode=mode).certificate
    if cert is None:
        raise CertifyError("no KKT certificate found; strong duality "
                           "construction unavailable")
    return DualTriple(xbar, cert.ystar.copy(), cert.mu.copy())


def converse_duality_check(spec: ProblemSpec, triple: DualTriple, kind: str,
                           region, resolution: int,
                           mode: str = "limiting") -> EfficiencyVerdict:
    """Check the converse-duality conclusion at a primal-feasible dual point.

    Kind I (type-I pseudo convexity) implies weak quasi-efficiency of z,
    kind II implies quasi-efficiency; both are checked by raster.
    """
    if kind not in ("I", "II"):
        raise VerifyError("kind must be 'I' or 'II'")
    z = np.asarray(triple.z, dtype=float).reshape(-1)
    if feasible_active_sets(spec, z) is None:
        raise VerifyError("converse duality requires a robust-feasible z")
    if not dual_feasible(spec, triple, mode).feasible:
        raise VerifyError("converse duality requires a dual-feasible triple")
    return classify_point(spec, z, "weak-quasi" if kind == "I" else "quasi",
                          region, resolution)
