"""Limiting-subdifferential engine for the expression DSL.

At a query point the expression is analyzed as smooth background plus a
collection of active nonsmooth atoms (abs nodes at their kink, max nodes at
a tie).  Textually identical atoms are merged and each distinct atom gets
the total first-order coefficient of the expression with respect to its
value.  The assembled set is then

    {smooth gradient} + sum over atoms of the atom's contribution,

where a kink with nonnegative coefficient contributes the full interval
(segment) and a negative coefficient contributes the two one-sided
gradients only; max ties contribute the convex hull of the active branch
gradients for nonnegative coefficients and the plain union otherwise.
Results are guaranteed outer estimates of the limiting subdifferential and
exact on the documented subclass (sums of constant-coefficient atoms with
affine arguments and pairwise disjoint coordinate supports).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .funcdsl import (
    Expr,
    _Atom,
    _check_scenario,
    _PointWalk,
    coords_used,
    is_affine,
)
from .robustfeas import (
    DEFAULT_VGRID,
    ProblemSpec,
    UncertainConstraint,
    _envelope_and_actives,
)
from .setcalc import Polytope, PolytopeSet, hull, minkowski_sum

DEFAULT_KINK_TOL = 1e-9


@dataclass(frozen=True)
class SubdiffResult:
    set: PolytopeSet
    mode: str            # "limiting" | "hull"
    exactness: str       # "exact" | "outer-estimate"
    rules: tuple[str, ...]

    @property
    def is_exact(self) -> bool:
        return self.exactness == "exact"


def _atom_contribution(atom: _Atom, kappa: float, d: int) -> PolytopeSet:
    if kappa == 0.0:
        return PolytopeSet.singleton(np.zeros(d))
    if atom.fault is not None:
        raise atom.fault
    if atom.kind == "abs":
        grad_a = atom.grads[0]
        lo, hi = -kappa * grad_a, kappa * grad_a
        if kappa > 0:
            return PolytopeSet([Polytope([lo, hi])])
        return PolytopeSet([Polytope([lo]), Polytope([hi])])
    verts = [kappa * g for g in atom.grads]
    if kappa > 0:
        return PolytopeSet([Polytope(verts, reduce=True)])
    return PolytopeSet([Polytope([w]) for w in verts])


def limiting_subdiff(e: Expr, x, v: float | None = None, mode: str = "limiting",
                     kink_tol: float = DEFAULT_KINK_TOL) -> SubdiffResult:
    """Limiting subdifferential (or its convex hull) of e at (x, v)."""
    if mode not in ("limiting", "hull"):
        raise ValueError(f"unknown mode {mode!r}")
    _check_scenario(e, v)
    xs = np.asarray(x, dtype=float).reshape(-1)
    d = xs.shape[0]
    walk = _PointWalk(xs.tolist(), v, kink_tol, strict=False)
    _, g0, kappas, _ = walk.node(e, True)
    if walk.faults:
        raise walk.faults[0]
    atoms = walk.atoms

    result = PolytopeSet.singleton(g0)
    rules: list[str] = []
    if not atoms:
        rules.append("smooth-gradient")
    else:
        rules.append("sum-rule")
    for key in sorted(atoms):
        atom = atoms[key]
        kappa = kappas.get(key, 0.0)
        contrib = _atom_contribution(atom, kappa, d)
        result = minkowski_sum(result, contrib)
        tag = "abs-kink" if atom.kind == "abs" else "max-tie"
        rules.append(f"{tag}({key}, coeff={kappa:.6g})")

    exact = _exactness(atoms)
    if mode == "hull":
        result = PolytopeSet([hull(result)])
        rules.append("hull-collapse")
    return SubdiffResult(result, mode, "exact" if exact else "outer-estimate",
                         tuple(rules))


def _exactness(atoms: dict[str, _Atom]) -> bool:
    xatoms = [a for a in atoms.values() if a.x_relevant]
    supports = []
    for a in xatoms:
        if not a.ctx_linear:
            return False
        if a.kind == "abs":
            if not is_affine(a.node.children[0]):
                return False
            supports.append(coords_used(a.node.children[0]))
        else:
            branches = [a.node.children[i] for i in a.tied]
            if not all(is_affine(b) for b in branches):
                return False
            sup = frozenset()
            for b in branches:
                sup |= coords_used(b)
            supports.append(sup)
    for i in range(len(supports)):
        for j in range(i + 1, len(supports)):
            if supports[i] & supports[j]:
                return False
    return True


# ---------------------------------------------------------------------------
# Sup rule over the scenario set and scalarization
# ---------------------------------------------------------------------------

def sup_rule(con: UncertainConstraint, x, tol: float = 1e-6,
             mode: str = "hull", kink_tol: float = DEFAULT_KINK_TOL,
             vgrid: int = DEFAULT_VGRID) -> SubdiffResult:
    """Outer estimate of the subdifferential of max_v g(., v) at x, for the
    constraint g = con.expr over its declared scenario interval or list.

    The hull of the union over active scenarios is the rule's native form;
    limiting mode keeps the union of the per-scenario sets.
    """
    g = con.expr
    if not g.has_v:
        return limiting_subdiff(g, x, None, mode, kink_tol)
    _, actives = _envelope_and_actives(con, x, tol, vgrid)
    pieces = [limiting_subdiff(g, x, v, "limiting", kink_tol) for v in actives]
    comps = [c for r in pieces for c in r.set.components]
    union = PolytopeSet(comps)
    exact = (len(actives) == 1 and pieces[0].is_exact
             and (mode == "limiting" or union.ncomponents == 1))
    rules = tuple(f"sup-rule(v={v:.9g})" for v in actives)
    if mode == "hull":
        return SubdiffResult(PolytopeSet([hull(union)]), "hull",
                             "exact" if exact else "outer-estimate",
                             rules + ("hull-collapse",))
    return SubdiffResult(union, "limiting",
                         "exact" if exact else "outer-estimate", rules)


def direct_subdiff(ystar, fs, x, mode: str = "limiting",
                   kink_tol: float = DEFAULT_KINK_TOL) -> SubdiffResult:
    """Subdifferential of <y*, f> at x, with sum_j y_j f_j differentiated
    as one assembled expression (shared atoms merge)."""
    from fractions import Fraction

    from .funcdsl import add, const, mul

    ystar = np.asarray(ystar, dtype=float).reshape(-1)
    if ystar.shape[0] != len(fs):
        raise ValueError("weight/objective count mismatch")
    xs = np.asarray(x, dtype=float).reshape(-1)
    tree = add(*(mul(const(Fraction(float(y))), f)
                 for y, f in zip(ystar, fs)))
    return limiting_subdiff(tree, xs, None, mode, kink_tol)


# ---------------------------------------------------------------------------
# Problem-level helpers (fixture-aware set selection)
# ---------------------------------------------------------------------------

def objective_set(spec: ProblemSpec, j: int, x, mode: str = "limiting",
                  use_fixtures: bool = False) -> tuple[PolytopeSet, str]:
    """Subdifferential set of objective j (1-based) with provenance."""
    name = spec.objective_names[j - 1]
    if use_fixtures:
        fx = spec.fixture_for(name, x)
        if fx is not None:
            return fx, "fixture"
    res = limiting_subdiff(spec.objectives[j - 1], x, None, mode, spec.kink_tol)
    return res.set, "engine"


def constraint_set(spec: ProblemSpec, i: int, x, mode: str = "hull",
                   use_fixtures: bool = False,
                   tol: float = 1e-6) -> tuple[PolytopeSet, str]:
    """Sup-rule set of constraint i (1-based) at x with provenance."""
    con = spec.constraints[i - 1]
    if use_fixtures:
        fx = spec.fixture_for(con.name, x)
        if fx is not None:
            return fx, "fixture"
    return sup_rule(con, x, tol, mode, spec.kink_tol, spec.vgrid).set, "engine"
