"""Brute-force efficiency classification and Mond-Weir duality checks.

Classification rasters the feasible region and tests the defining cone
relation at every feasible sample; a NO-COUNTEREXAMPLE verdict is always
resolution-qualified, never a proof.  Duality checks reuse the certificate
machinery: dual feasibility is the same zero-membership LP evaluated at
the dual point, and weak/converse duality reduce to cone comparisons over
sampled feasible points.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .certify import CertifyError, multiplier_checks, search_kkt
from .funcdsl import _on_grid
from .robustfeas import (
    CELLS_LIMIT,
    ProblemSpec,
    compute_active_sets,
    feasibility_mask,
    feasible_active_sets,
    raster,
)
from .setcalc import (
    ConeSpec,
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
# Cone membership
# ---------------------------------------------------------------------------

def _membership_mask(D: np.ndarray, cone: ConeSpec,
                     region: str) -> np.ndarray:
    """Membership of the columns of D (shape (p, N)) in -int K (region
    "minus-int-K") or in -K \\ {0} (region "minus-K-minus-0")."""
    s = np.asarray(cone.pattern, dtype=float)[:, None]
    if region == "minus-int-K":
        return np.all(s * D < -ZERO_TOL, axis=0)
    Dz = np.where(np.abs(D) <= ZERO_TOL, 0.0, D)
    return np.all(s * Dz <= 0.0, axis=0) & np.any(Dz != 0.0, axis=0)


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
        mesh = np.meshgrid(r.x1, r.x2, indexing="ij", sparse=True)

        def feasible(values):  # row-major, as the raster's CSV
            return np.broadcast_to(values, r.feasible.shape)[r.feasible]

        Xf = np.array([feasible(x) for x in mesh])
        F = np.array([feasible(_on_grid(f, mesh)) for f in spec.objectives])
    else:
        if resolution > CELLS_LIMIT:
            raise VerifyError(
                f"{resolution} samples exceed the limit {CELLS_LIMIT}")
        lo = np.asarray(region[0::2], dtype=float)
        hi = np.asarray(region[1::2], dtype=float)
        rng = np.random.default_rng(spec.seed)
        X = (lo[:, None] + (hi - lo)[:, None]
             * rng.random((spec.dim, resolution)))
        Xf = X[:, feasibility_mask(spec, X)]
        F = spec.fvec_grid(Xf)
    if Xf.shape[1] == 0:
        return EfficiencyVerdict(kind, True, None, None, tuple(region),
                                 resolution, 0)
    D = F - spec.fvec(xbar)[:, None]
    D += spec.theta[:, None] * (norm_grid(spec.norm, Xf - xbar[:, None])
                                if quasi else 1.0)
    bad = _membership_mask(D, spec.cone, memb_region)
    if not np.any(bad):
        return EfficiencyVerdict(kind, True, None, None, tuple(region),
                                 resolution, int(Xf.shape[1]))
    t = int(np.argmax(bad))  # first violation in deterministic scan order
    return EfficiencyVerdict(kind, False, Xf[:, t].copy(), D[:, t].copy(),
                             tuple(region), resolution, int(Xf.shape[1]))


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
    weighted per-objective sets, mu-scaled sup-rule hulls, the scaled dual
    ball and the normal cone at z; the signed complementarity requires
    mu_i * g_i(z, v_i) >= -DUAL_TOL at the active scenarios.
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
    ball = PolytopeSet([dual_ball(spec.norm, spec.dim, spec.ball_facets)])
    parts.append(scale(ball, radius))
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
    of count robust-feasible samples x of region (generate_feasible_samples)
    and dual-feasible triples.

    Kind I uses the weak relation (no violation means f(x) never lands in
    -int K); kind II uses the strict relation via -K \\ {0}.
    """
    samples = generate_feasible_samples(spec, region, count)
    if kind not in ("I", "II"):
        raise VerifyError("kind must be 'I' or 'II'")
    memb_region = "minus-int-K" if kind == "I" else "minus-K-minus-0"
    for tr in triples:
        if not dual_feasible(spec, tr, mode).feasible:
            raise VerifyError("weak duality requires dual-feasible triples")
    F = spec.fvec_grid(samples.T)
    pairs = 0
    for tr in triples:
        fz = spec.fvec(tr.z)
        dist = norm_grid(spec.norm, samples.T - tr.z[:, None])
        D = F - fz[:, None] + np.outer(spec.theta, dist)
        bad = _membership_mask(D, spec.cone, memb_region)
        pairs += samples.shape[0]
        if np.any(bad):
            t = int(np.argmax(bad))
            return WeakDualityReport(pairs, {
                "x": samples[t], "triple": tr, "relation_value": D[:, t]})
    return WeakDualityReport(pairs)


def generate_feasible_samples(spec: ProblemSpec, region,
                              count: int) -> np.ndarray:
    """Deterministic rejection sampling of robust-feasible points, seeded
    by the problem's seed."""
    rng = np.random.default_rng(spec.seed)
    lo = np.asarray(region[0::2], dtype=float)
    hi = np.asarray(region[1::2], dtype=float)
    out = []
    for _ in range(200):
        X = lo[:, None] + (hi - lo)[:, None] * rng.random((spec.dim,
                                                           4 * count))
        out.extend(X[:, feasibility_mask(spec, X)].T)
        if len(out) >= count:
            return np.array(out[:count])
    raise VerifyError("could not sample enough feasible points in region")


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
