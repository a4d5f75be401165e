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

Scalarization rule.  The subdifferential of <y*, f> is that of the one
expression add(mul(const(y_1), f_1), ...), not the sum of the objectives'
sets.  Below the weights that tree is the same for every y*, so
``Scalarization`` walks each objective once and per y* repeats only the
walk's product and sum rules above the objectives, merging their atoms by
first occurrence, as mul and add canonicalize: a zero weight drops its term,
a product objective's constant c_j folds into float(Fraction(y_j) c_j), a
term whose constant comes to 1 drops it and a lone sum factor then joins the
outer sum, and all constants gather into one last term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .funcdsl import (
    DEFAULT_KINK_TOL,
    Expr,
    _Atom,
    _check_scenario,
    _factor_contexts,
    _PointWalk,
    _prod_rule,
    _sum_rule,
    const,
    coords_used,
    is_affine,
)
from .robustfeas import ActiveSets, ProblemSpec, UncertainConstraint
from .setcalc import Polytope, PolytopeSet, hull, minkowski_sum


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
    walk = _PointWalk(xs.tolist(), v, kink_tol, strict=False)
    _, g0, kappas, _ = walk.node(e, True)
    if walk.faults:
        raise walk.faults[0]
    return _assemble(g0, kappas, walk.atoms, mode)


def _assemble(g0: np.ndarray, kappas: dict[str, float],
              atoms: dict[str, _Atom], mode: str) -> SubdiffResult:
    """{g0} plus each atom's contribution, in key order, then the hull in
    hull mode."""
    d = g0.shape[0]
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

def sup_rule(con: UncertainConstraint, x, actives, mode: str = "hull",
             kink_tol: float = DEFAULT_KINK_TOL) -> SubdiffResult:
    """Outer estimate of the subdifferential of max_v g(., v) at x, for the
    constraint g = con.expr and its active scenarios at x (the caller's
    scenario_envelope scan; ignored when g is v-free).

    The hull of the union over active scenarios is the rule's native form;
    limiting mode keeps the union of the per-scenario sets.
    """
    g = con.expr
    if not g.has_v:
        return limiting_subdiff(g, x, None, mode, kink_tol)
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


class _Objective:
    """An objective f walked once at x and split as mul splits const(y)*f:
    the product ``const`` of its constant factors, and its other factors
    with their walks ``parts``.  When y*const is 1 the const factor drops
    and the term puts ``unit`` in the outer sum: the walks of a lone sum
    factor's terms, which add flattens (their constant ``unit_const`` joins
    the outer one), or else the walk of the product of the factors."""

    def __init__(self, f: Expr, walk: _PointWalk):
        self.f, self.const, self.factors, ctxs = f, Fraction(1), [], []
        factors = f.children if f.kind == "prod" else (f,)
        for c, ctx in zip(factors, _factor_contexts(factors, True)):
            if c.kind == "const":
                self.const *= c.value
            else:
                self.factors.append(c)
                ctxs.append(ctx)
        terms = (self.factors[0].children if len(self.factors) == 1
                 and self.factors[0].kind == "sum" else ())
        self.unit_const = sum((t.value for t in terms if t.kind == "const"),
                              Fraction(0))
        zero = np.zeros(walk.d)
        self.parts, self.unit, self.error = [], [], None
        try:
            if terms:
                walked = [walk.node(t, True) for t in terms]
                self.parts = [_sum_rule(walked, zero)]
                self.unit = [p for t, p in zip(terms, walked)
                             if t.kind != "const"]
            else:
                self.parts = [walk.node(c, ctx)
                              for c, ctx in zip(self.factors, ctxs)]
                self.unit = self.parts[:1] if len(self.parts) < 2 else [
                    _prod_rule(self.parts, zero)]
        except Exception as exc:  # raised by the calls that keep f
            self.error = exc
        self.atoms, self.faults = walk.atoms, walk.faults
        # two factors nonsmooth in x: the walk of f's product term refuses
        self.rough = self.error is None and sum(p[3] for p in self.parts) > 1


class Scalarization:
    """``ystar -> SubdiffResult``: the subdifferential of <y*, f> at x,
    with sum_j y_j f_j differentiated as one assembled expression (shared
    atoms merge), each objective walked once for every y*.

    A call gives what limiting_subdiff gives on the tree
    add(mul(const(y_1), f_1), ...), bit for bit and with the same
    exceptions, without building that tree (see the module docstring).
    """

    def __init__(self, fs, x, mode: str = "limiting",
                 kink_tol: float = DEFAULT_KINK_TOL):
        self.xl = np.asarray(x, dtype=float).reshape(-1).tolist()
        self.mode, self.kink_tol = mode, kink_tol
        self.zero = np.zeros(len(self.xl))
        self.objectives = [_Objective(f, self._walk()) for f in fs]

    def _walk(self) -> _PointWalk:
        return _PointWalk(self.xl, None, self.kink_tol, strict=False)

    def __call__(self, ystar) -> SubdiffResult:
        ystar = np.asarray(ystar, dtype=float).reshape(-1)
        if ystar.shape[0] != len(self.objectives):
            raise ValueError("weight/objective count mismatch")
        # the tree's constants, refused where mul and add refuse them
        kept, csum = [], Fraction(0)
        for y, ob in zip(ystar.tolist(), self.objectives):
            # Fraction(y) * 1 is y, and Fraction(y) refuses inf and NaN
            cp = (y if ob.const == 1 and ob.factors and math.isfinite(y)
                  else Fraction(y) * ob.const)
            if cp == 0:
                continue
            if not ob.factors or cp != 1 and ob.const != 1:
                const(cp)  # a float y times 1 always fits
            if not ob.factors:
                csum += cp
                continue
            kept.append((ob, cp))
            if cp == 1:
                csum += ob.unit_const
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
                self._walk().node(Expr("prod", children=(
                    (const(cp),) if cp != 1 else ()) + tuple(ob.factors)),
                    True)
        for ob, _ in kept:
            if ob.faults:
                raise ob.faults[0].with_traceback(None)

        rest, atoms = [], {}
        for ob, cp in kept:
            if cp == 1:
                rest.extend(ob.unit)
            else:
                rest.append(_prod_rule([(float(cp), self.zero, {}, False)]
                                       + ob.parts, self.zero))
            for key, atom in ob.atoms.items():
                first = atoms.setdefault(key, atom)
                if first.ctx_linear and not atom.ctx_linear:
                    atoms[key] = replace(first, ctx_linear=False)
        if csum != 0 or not rest:
            rest.append((float(csum), self.zero, {}, False))
        top = rest[0] if len(rest) == 1 else _sum_rule(rest, self.zero)
        return _assemble(top[1], top[2], atoms, self.mode)


def direct_subdiff(ystar, fs, x, mode: str = "limiting",
                   kink_tol: float = DEFAULT_KINK_TOL) -> SubdiffResult:
    """Subdifferential of <y*, f> at x (one call of a Scalarization)."""
    return Scalarization(fs, x, mode, kink_tol)(ystar)


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


def constraint_set(spec: ProblemSpec, i: int, x, acts: ActiveSets,
                   mode: str = "hull",
                   use_fixtures: bool = False) -> tuple[PolytopeSet, str]:
    """Sup-rule set of constraint i (1-based) at x with provenance, over
    the active scenarios of acts, the caller's compute_active_sets(spec, x)."""
    con = spec.constraints[i - 1]
    if use_fixtures:
        fx = spec.fixture_for(con.name, x)
        if fx is not None:
            return fx, "fixture"
    return sup_rule(con, x, acts.scenarios[i - 1], mode,
                    spec.kink_tol).set, "engine"
