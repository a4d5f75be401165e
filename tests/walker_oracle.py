"""The walkers of ``limiting_subdiff`` before ``funcdsl._PointWalk``
merged them, kept as the oracle of the differential tests in
test_walker.py.

``limiting_subdiff`` made three walks per call at the same point:
``_collect_atoms`` found the active atoms and refused unsupported
structure, ``_sens`` took the value, the smooth gradient and the per-atom
coefficients, and ``gradient_x`` (``_grad``) took the gradient of each
atom's argument or tied branch, only for atoms with a nonzero coefficient.
The functions below are the removed code, unchanged apart from imports;
``NonsmoothPointError``, which the package no longer has, is defined here.

``PointWalk``, at the end, is the one recursive walk that replaced them,
kept as the oracle of the compiled walk that replaced it in turn.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from robustkkt.funcdsl import (
    DEFAULT_KINK_TOL,
    DomainError,
    Expr,
    ExprError,
    UnsupportedStructureError,
    _check_scenario,
    _floats,
    _power,
    contains_coord,
    format_expr,
)
from robustkkt.funcdsl import _Atom as WalkAtom
from robustkkt.setcalc import Polytope, PolytopeSet, hull, minkowski_sum
from robustkkt.subdiff import SubdiffResult, _exactness, _one


class NonsmoothPointError(ExprError):
    """A kink or max tie is active at the query point."""


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
            raise DomainError(f"division by zero in 1/({e.children[0]})")
        slope = -1.0 / (cv * cv)
        return 1.0 / cv, slope * cg, {q: slope * a for q, a in ck.items()}
    if k == "sqrt":
        cv, cg, ck = _sens(e.children[0], xl, v, tol, d)
        if cv <= 0.0:
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


def gradient_x(e: Expr, xs: np.ndarray, v, kink_tol: float,
               x_only: bool = True) -> np.ndarray:
    """Internal variant: with x_only, kinks in x-free subtrees do not error."""
    _, g = _grad(e, _floats(xs), v, kink_tol, x_only)
    return g


def _grad(e: Expr, xl: list[float], v, tol: float, x_only: bool):
    d = len(xl)
    k = e.kind
    if k == "const":
        return float(e.value), np.zeros(d)
    if k == "coord":
        g = np.zeros(d)
        g[e.index - 1] = 1.0
        return xl[e.index - 1], g
    if k == "uvar":
        return float(v), np.zeros(d)
    if k == "sum":
        val, g = 0.0, np.zeros(d)
        for c in e.children:
            cv, cg = _grad(c, xl, v, tol, x_only)
            val += cv
            g += cg
        return val, g
    if k == "prod":
        vals, grads = [], []
        for c in e.children:
            cv, cg = _grad(c, xl, v, tol, x_only)
            vals.append(cv)
            grads.append(cg)
        total = 1.0
        for cv in vals:
            total *= cv
        g = np.zeros(d)
        for j in range(len(vals)):
            rest = 1.0
            for i, cv in enumerate(vals):
                if i != j:
                    rest *= cv
            g += rest * grads[j]
        return total, g
    if k == "pow":
        cv, cg = _grad(e.children[0], xl, v, tol, x_only)
        n = e.exponent
        return cv ** n, n * cv ** (n - 1) * cg
    if k == "recip":
        cv, cg = _grad(e.children[0], xl, v, tol, x_only)
        if cv == 0.0:
            raise DomainError(f"division by zero in 1/({e.children[0]})")
        return 1.0 / cv, (-1.0 / (cv * cv)) * cg
    if k == "sqrt":
        cv, cg = _grad(e.children[0], xl, v, tol, x_only)
        if cv <= 0.0:
            raise DomainError(f"sqrt argument not positive in sqrt({e.children[0]})")
        r = cv ** 0.5
        return r, (0.5 / r) * cg
    if k == "abs":
        arg = e.children[0]
        cv = arg.scalar_fn(xl, v)
        if abs(cv) <= tol:
            if not x_only or contains_coord(arg):
                raise NonsmoothPointError(f"abs({arg}) active")
            return abs(cv), np.zeros(d)
        _, cg = _grad(arg, xl, v, tol, x_only)
        return abs(cv), np.copysign(1.0, cv) * cg
    if k == "max":
        vals = [c.scalar_fn(xl, v) for c in e.children]
        top = max(vals)
        tied = [i for i, cv in enumerate(vals) if top - cv <= tol]
        if len(tied) > 1:
            if not x_only or any(contains_coord(e.children[i]) for i in tied):
                raise NonsmoothPointError(f"max tie in {format_expr(e)}")
            return top, np.zeros(d)
        _, cg = _grad(e.children[tied[0]], xl, v, tol, x_only)
        return top, cg
    raise ValueError(f"unknown node kind {k}")


# ---------------------------------------------------------------------------
# The one walk that merged the three above, kept as the oracle of the
# compiled walk ``Expr.walk_fn``: ``PointWalk`` is ``funcdsl._PointWalk``,
# and the three functions after it are funcdsl's, unchanged apart from the
# class name and the name of funcdsl's ``_Atom``, which the walk builds.
# ``point_walk_subdiff`` is ``limiting_subdiff`` as it called the walk.
# ---------------------------------------------------------------------------

class PointWalk:
    """One walk of a tree at (x, v) that selects each abs/max branch once.

    ``node`` returns the value, the x-gradient, the coefficient of each
    active atom below (keyed by format_expr) and whether one of those atoms
    is x-relevant; the atoms outside other atoms are recorded in ``atoms``.
    An x-relevant kink nested in an active atom, or a product of two factors
    nonsmooth in x, raises UnsupportedStructureError at once.  A gradient
    domain fault (1/0, sqrt of a nonpositive value) is recorded in
    ``faults`` and the walk goes on with NaN, so those refusals come first
    and the faults inside an atom count only for a nonzero coefficient.
    The reciprocal and square-root rules multiply g by the slope,
    -1/u^2 and 0.5/sqrt(u).
    """

    def __init__(self, xl: list[float], v, tol: float):
        self.xl, self.v, self.tol, self.d = xl, v, tol, len(xl)
        self.atoms: dict[str, _Atom] = {}
        self.faults: list[DomainError] = []

    def fault(self, message: str) -> float:
        self.faults.append(DomainError(message))
        return math.nan

    def atom(self, e: Expr, kind: str, tied: tuple[int, ...],
             branches: tuple[Expr, ...], ctx_linear: bool):
        """Record the active atom e; its coefficient map and x-relevance."""
        key = format_expr(e)
        outer = self.atoms, self.faults
        self.atoms, self.faults = {}, []
        grads = []
        for b in branches:
            _, g, _, nested = self.node(b, False)
            if nested:
                raise UnsupportedStructureError(
                    f"active kink nested inside {key}")
            grads.append(g)
        fault = self.faults[0] if self.faults else None
        self.atoms, self.faults = outer
        xrel = any(contains_coord(b) for b in branches)
        atom = self.atoms.setdefault(key, WalkAtom(key, kind, e, tied, ctx_linear,
                                                xrel, grads, fault))
        if atom.ctx_linear and not ctx_linear:
            atom = self.atoms[key] = atom._replace(ctx_linear=False)
        return {key: 1.0}, atom.x_relevant

    def node(self, e: Expr, ctx_linear: bool):
        k = e.kind
        zero = np.zeros(self.d)
        if k == "const":
            return float(e.value), zero, {}, False
        if k == "coord":
            zero[e.index - 1] = 1.0
            return self.xl[e.index - 1], zero, {}, False
        if k == "uvar":
            return float(self.v), zero, {}, False
        if k == "abs":
            arg = e.children[0]
            av = arg.scalar_fn(self.xl, self.v)
            if abs(av) <= self.tol:
                return abs(av), zero, *self.atom(e, "abs", (), (arg,),
                                                 ctx_linear)
            val, g, kap, rough = self.node(arg, False)
            s = 1.0 if val > 0 else -1.0
            return abs(val), s * g, {q: s * c for q, c in kap.items()}, rough
        if k == "max":
            vals = [c.scalar_fn(self.xl, self.v) for c in e.children]
            top = max(vals)
            tied = tuple(i for i, cv in enumerate(vals) if top - cv <= self.tol)
            if len(tied) > 1:
                branches = tuple(e.children[i] for i in tied)
                return top, zero, *self.atom(e, "max", tied, branches,
                                             ctx_linear)
            return self.node(e.children[tied[0]], False)
        if k == "sum":
            return _sum_rule([self.node(c, ctx_linear) for c in e.children],
                            zero)
        if k == "prod":
            parts = [self.node(c, ctx) for c, ctx
                     in zip(e.children, _factor_contexts(e.children,
                                                        ctx_linear))]
            if sum(p[3] for p in parts) > 1:
                raise UnsupportedStructureError(
                    "product of two factors nonsmooth in x at this point: "
                    + format_expr(e))
            return _prod_rule(parts, zero)
        if k not in ("pow", "recip", "sqrt"):
            raise ValueError(f"unknown node kind {k}")
        cv, cg, ck, rough = self.node(e.children[0], False)
        if k == "pow":
            n = e.exponent
            slope = n * _power(cv, n - 1, e)
            val = _power(cv, n, e)
        elif k == "recip":
            if cv == 0.0:
                cv = self.fault(f"division by zero in 1/({e.children[0]})")
            val = 1.0 / cv
            square = cv * cv or self.fault(
                f"slope of 1/({e.children[0]}) overflows")
            slope = -1.0 / square
        else:
            if cv <= 0.0:
                cv = self.fault(
                    f"sqrt argument not positive in sqrt({e.children[0]})")
            val = cv ** 0.5
            slope = 0.5 / val
        return val, slope * cg, {q: slope * a for q, a in ck.items()}, rough


def _factor_contexts(children: tuple[Expr, ...], ctx_linear: bool):
    """Whether each factor of a product sits in a constant-coefficient
    context: the product's own context, and no other factor reads x."""
    return [ctx_linear and all(not contains_coord(o) for o in children
                               if o is not c) for c in children]


def _sum_rule(parts, zero: np.ndarray):
    """The walk of a sum from the walks of its terms, in term order."""
    total, g, kap, rough = 0.0, zero, {}, False
    for cv, cg, ck, cr in parts:
        total += cv
        g = g + cg
        for q, a in ck.items():
            kap[q] = kap.get(q, 0.0) + a
        rough = rough or cr
    return total, g, kap, rough


def _prod_rule(parts, zero: np.ndarray):
    """The walk of a product from the walks of its factors, in factor
    order: each factor's gradient and coefficients times the product of
    the other factors' values."""
    total = 1.0
    for p in parts:
        total *= p[0]
    g, kap = zero, {}
    for j, (_, cg, ck, _) in enumerate(parts):
        rest = 1.0
        for i, p in enumerate(parts):
            if i != j:
                rest *= p[0]
        g = g + rest * cg
        for q, a in ck.items():
            kap[q] = kap.get(q, 0.0) + rest * a
    return total, g, kap, any(p[3] for p in parts)


def point_walk_subdiff(e: Expr, x, v: float | None = None,
                       mode: str = "limiting",
                       kink_tol: float = DEFAULT_KINK_TOL) -> SubdiffResult:
    """Limiting subdifferential (or its convex hull) of e at (x, v)."""
    if mode not in ("limiting", "hull"):
        raise ValueError(f"unknown mode {mode!r}")
    _check_scenario(e, v)
    xs = np.asarray(x, dtype=float).reshape(-1)
    walk = PointWalk(xs.tolist(), v, kink_tol)
    _, g0, kappas, _ = walk.node(e, True)
    if walk.faults:
        raise walk.faults[0]
    return _one(g0, kappas, walk.atoms, mode)
