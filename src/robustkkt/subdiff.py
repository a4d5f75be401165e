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
    UnsupportedStructureError,
    _check_scenario,
    contains_coord,
    coords_used,
    format_expr,
    gradient_x,
    is_affine,
    scenario_fn,
)
from .robustfeas import ProblemSpec, active_uncertainty
from .setcalc import Polytope, PolytopeSet, hull, minkowski_sum, scale

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


@dataclass
class _Atom:
    key: str
    kind: str                  # "abs" | "max"
    node: Expr
    tied: tuple[int, ...]
    ctx_linear: bool           # constant coefficient context
    x_relevant: bool


def _collect_atoms(e: Expr, xl, v, tol: float, ctx_linear: bool,
                   out: dict[str, _Atom]) -> list[_Atom]:
    """Selection-aware walk returning the active atoms of this subtree."""
    k = e.kind
    if k in ("const", "coord", "uvar"):
        return []
    if k == "abs":
        arg = e.children[0]
        if abs(arg.scalar_fn(xl, v)) <= tol:
            inner: dict[str, _Atom] = {}
            nested = _collect_atoms(arg, xl, v, tol, False, inner)
            if any(a.x_relevant for a in nested):
                raise UnsupportedStructureError(
                    f"active kink nested inside abs({format_expr(arg)})")
            atom = _register(out, _Atom(format_expr(e), "abs", e, (),
                                        ctx_linear, contains_coord(arg)))
            return [atom]
        return _collect_atoms(arg, xl, v, tol, False, out)
    if k == "max":
        vals = [c.scalar_fn(xl, v) for c in e.children]
        top = max(vals)
        tied = tuple(i for i, cv in enumerate(vals) if top - cv <= tol)
        if len(tied) > 1:
            for i in tied:
                inner: dict[str, _Atom] = {}
                nested = _collect_atoms(e.children[i], xl, v, tol, False, inner)
                if any(a.x_relevant for a in nested):
                    raise UnsupportedStructureError(
                        f"active kink nested inside {format_expr(e)}")
            xrel = any(contains_coord(e.children[i]) for i in tied)
            atom = _register(out, _Atom(format_expr(e), "max", e, tied,
                                        ctx_linear, xrel))
            return [atom]
        return _collect_atoms(e.children[tied[0]], xl, v, tol, False, out)
    if k == "sum":
        found: list[_Atom] = []
        for c in e.children:
            found.extend(_collect_atoms(c, xl, v, tol, ctx_linear, out))
        return found
    if k == "prod":
        per_child: list[list[_Atom]] = []
        for c in e.children:
            child_ctx = ctx_linear and all(
                not contains_coord(o) for o in e.children if o is not c)
            per_child.append(_collect_atoms(c, xl, v, tol, child_ctx, out))
        rough = [c for c, found in zip(e.children, per_child)
                 if any(a.x_relevant for a in found)]
        if len(rough) > 1:
            raise UnsupportedStructureError(
                "product of two factors nonsmooth in x at this point: "
                + format_expr(e))
        return [a for found in per_child for a in found]
    if k in ("pow", "recip", "sqrt"):
        return _collect_atoms(e.children[0], xl, v, tol, False, out)
    raise ValueError(f"unknown node kind {k}")


def _register(out: dict[str, _Atom], atom: _Atom) -> _Atom:
    prev = out.get(atom.key)
    if prev is None:
        out[atom.key] = atom
        return atom
    prev.ctx_linear = prev.ctx_linear and atom.ctx_linear
    return prev


def _sens(e: Expr, xl, v, tol: float, d: int):
    """Value, ambient x-gradient and per-atom coefficients of this node."""
    k = e.kind
    zero = np.zeros(d)
    if k == "const":
        return float(e.value), zero, {}
    if k == "coord":
        g = np.zeros(d)
        g[e.index - 1] = 1.0
        return xl[e.index - 1], g, {}
    if k == "uvar":
        return float(v), zero, {}
    if k == "abs":
        arg = e.children[0]
        av = arg.scalar_fn(xl, v)
        if abs(av) <= tol:
            return abs(av), zero, {format_expr(e): 1.0}
        val, g, kap = _sens(arg, xl, v, tol, d)
        s = 1.0 if val > 0 else -1.0
        return abs(val), s * g, {q: s * c for q, c in kap.items()}
    if k == "max":
        vals = [c.scalar_fn(xl, v) for c in e.children]
        top = max(vals)
        tied = [i for i, cv in enumerate(vals) if top - cv <= tol]
        if len(tied) > 1:
            return top, zero, {format_expr(e): 1.0}
        return _sens(e.children[tied[0]], xl, v, tol, d)
    if k == "sum":
        total, g, kap = 0.0, np.zeros(d), {}
        for c in e.children:
            cv, cg, ck = _sens(c, xl, v, tol, d)
            total += cv
            g = g + cg
            for q, a in ck.items():
                kap[q] = kap.get(q, 0.0) + a
        return total, g, kap
    if k == "prod":
        parts = [_sens(c, xl, v, tol, d) for c in e.children]
        total = 1.0
        for cv, _, _ in parts:
            total *= cv
        g, kap = np.zeros(d), {}
        for j, (cv, cg, ck) in enumerate(parts):
            rest = 1.0
            for i, (ov, _, _) in enumerate(parts):
                if i != j:
                    rest *= ov
            g = g + rest * cg
            for q, a in ck.items():
                kap[q] = kap.get(q, 0.0) + rest * a
        return total, g, kap
    if k == "pow":
        cv, cg, ck = _sens(e.children[0], xl, v, tol, d)
        n = e.exponent
        slope = n * cv ** (n - 1)
        return cv ** n, slope * cg, {q: slope * a for q, a in ck.items()}
    if k == "recip":
        cv, cg, ck = _sens(e.children[0], xl, v, tol, d)
        if cv == 0.0:
            from .funcdsl import DomainError
            raise DomainError(f"division by zero in 1/({e.children[0]})")
        slope = -1.0 / (cv * cv)
        return 1.0 / cv, slope * cg, {q: slope * a for q, a in ck.items()}
    if k == "sqrt":
        cv, cg, ck = _sens(e.children[0], xl, v, tol, d)
        if cv <= 0.0:
            from .funcdsl import DomainError
            raise DomainError(
                f"sqrt argument not positive in sqrt({e.children[0]})")
        slope = 0.5 / cv ** 0.5
        return cv ** 0.5, slope * cg, {q: slope * a for q, a in ck.items()}
    raise ValueError(f"unknown node kind {k}")


def _atom_contribution(atom: _Atom, kappa: float, xs, v, tol: float,
                       d: int) -> PolytopeSet:
    if kappa == 0.0:
        return PolytopeSet.singleton(np.zeros(d))
    if atom.kind == "abs":
        grad_a = gradient_x(atom.node.children[0], xs, v, tol)
        lo, hi = -kappa * grad_a, kappa * grad_a
        if kappa > 0:
            return PolytopeSet([Polytope([lo, hi])])
        return PolytopeSet([Polytope([lo]), Polytope([hi])])
    grads = [gradient_x(atom.node.children[i], xs, v, tol) for i in atom.tied]
    verts = [kappa * g for g in grads]
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
    xl = xs.tolist()
    atoms: dict[str, _Atom] = {}
    _collect_atoms(e, xl, v, kink_tol, True, atoms)
    _, g0, kappas = _sens(e, xl, v, kink_tol, d)

    result = PolytopeSet.singleton(g0)
    rules: list[str] = []
    if not atoms:
        rules.append("smooth-gradient")
    else:
        rules.append("sum-rule")
    for key in sorted(atoms):
        atom = atoms[key]
        kappa = kappas.get(key, 0.0)
        contrib = _atom_contribution(atom, kappa, xs, v, kink_tol, d)
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

def sup_rule(g: Expr, x, V, tol: float = 1e-6, mode: str = "hull",
             kink_tol: float = DEFAULT_KINK_TOL,
             vgrid: int = 1001) -> SubdiffResult:
    """Outer estimate of the subdifferential of max_v g(., v) at x.

    V is either an interval (lo, hi) or an explicit scenario list.  The
    hull of the union over active scenarios is the rule's native form;
    limiting mode keeps the union of the per-scenario sets.
    """
    from .robustfeas import active_scenarios_interval

    if not g.has_v:
        return limiting_subdiff(g, x, None, mode, kink_tol)
    fn = scenario_fn(g, x)
    if isinstance(V, (tuple, list)) and len(V) == 2 and not isinstance(V[0], (list, tuple)):
        lo, hi = float(V[0]), float(V[1])
        _, actives = active_scenarios_interval(fn, lo, hi, tol, vgrid)
    else:
        scen = [float(v) for v in V]
        vals = [fn(v) for v in scen]
        top = max(vals)
        actives = [v for v, fv in zip(scen, vals) if fv >= top - tol]
    if not actives:
        raise ValueError("empty active scenario set")
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


@dataclass(frozen=True)
class ScalarizedResult:
    direct: SubdiffResult        # subdifferential of sum_j y_j f_j built as one tree
    combination: SubdiffResult   # Minkowski sum of y_j-scaled per-objective sets


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


def scalarized_subdiff(ystar, fs, x, mode: str = "limiting",
                       kink_tol: float = DEFAULT_KINK_TOL) -> ScalarizedResult:
    """Both scalarization strategies for <y*, f> at x.

    The direct strategy (direct_subdiff) is the tighter set; the
    combination strategy scales each per-objective set by its weight
    pointwise and Minkowski-sums, matching the certificate arithmetic of
    the worked problems.
    """
    direct = direct_subdiff(ystar, fs, x, mode, kink_tol)
    xs = np.asarray(x, dtype=float).reshape(-1)
    combo = PolytopeSet.singleton(np.zeros(xs.shape[0]))
    rules: list[str] = ["combination"]
    for y, f in zip(np.asarray(ystar, dtype=float).reshape(-1), fs):
        part = limiting_subdiff(f, xs, None, mode, kink_tol)
        combo = minkowski_sum(combo, scale(part.set, float(y)))
        rules.extend(part.rules)
    if mode == "hull":
        combo = PolytopeSet([hull(combo)])
    combination = SubdiffResult(combo, mode, "outer-estimate", tuple(rules))
    return ScalarizedResult(direct, combination)


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
    if not con.has_uncertainty:
        res = limiting_subdiff(con.expr, x, None, mode, spec.kink_tol)
        return res.set, "engine"
    V = con.scenarios if con.scenarios is not None else (con.lo, con.hi)
    res = sup_rule(con.expr, x, V, tol, mode, spec.kink_tol, spec.vgrid)
    return res.set, "engine"


def constraint_scenario_sets(spec: ProblemSpec, i: int, x,
                             tol: float = 1e-6) -> list[tuple[float, PolytopeSet]]:
    """Per-active-scenario limiting sets of constraint i at x."""
    con = spec.constraints[i - 1]
    if not con.has_uncertainty:
        res = limiting_subdiff(con.expr, x, None, "limiting", spec.kink_tol)
        return [(0.0, res.set)]
    out = []
    for v in active_uncertainty(spec, i, x, tol):
        res = limiting_subdiff(con.expr, x, v, "limiting", spec.kink_tol)
        out.append((v, res.set))
    return out
