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

The set is computed on vertex arrays (rows, k, d), many rows at once, as
minkowski_sum and Polytope compute it (``_sets``); a point is one row.

Scalarization rule.  The subdifferential of <y*, f> is that of the one
expression add(mul(const(y_1), f_1), ...), not the sum of the objectives'
sets.  Below the weights that tree is the same for every y*, so
``Scalarization`` walks each objective once and repeats only the walk's
product and sum rules above the objectives, merging their atoms by first
occurrence, as mul and add canonicalize: a zero weight drops its term, a
product objective's constant c_j folds into float(Fraction(y_j) c_j), a
term whose constant comes to 1 drops it and a lone sum factor then joins the
outer sum, and all constants gather into one last term.  Those rules run on
columns of y* values at once, one pass per structure group: the y* that
drop the same terms, fold the same constants to 1 and give each atom's
coefficient the same sign share every float operation but their values,
so their sets come from one call of ``_sets``.
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
# minkowski_sum is not called here; verdictbench's tracer test checks that
# it patches this binding, so it stays until that test drops the module
from .setcalc import VERTEX_TOL, Polytope, PolytopeSet, hull, \
    minkowski_sum  # noqa: F401


@dataclass(frozen=True)
class SubdiffResult:
    set: PolytopeSet
    mode: str            # "limiting" | "hull"
    exactness: str       # "exact" | "outer-estimate"
    rules: tuple[str, ...]

    @property
    def is_exact(self) -> bool:
        return self.exactness == "exact"


def limiting_subdiff(e: Expr, x, v: float | None = None, mode: str = "limiting",
                     kink_tol: float = DEFAULT_KINK_TOL) -> SubdiffResult:
    """Limiting subdifferential (or its convex hull) of e at (x, v)."""
    if mode not in ("limiting", "hull"):
        raise ValueError(f"unknown mode {mode!r}")
    _check_scenario(e, v)
    xs = np.asarray(x, dtype=float).reshape(-1)
    walk = _PointWalk(xs.tolist(), v, kink_tol)
    _, g0, kappas, _ = walk.node(e, True)
    if walk.faults:
        raise walk.faults[0]
    return _one(g0, kappas, walk.atoms, mode)


def _one(g0: np.ndarray, kappas: dict[str, float], atoms: dict[str, _Atom],
         mode: str) -> SubdiffResult:
    """The set of _sets' batch of one, g0 (d,) with float coefficients,
    and its rules and exactness; or its exception, raised."""
    kap = {q: kappas.get(q, 0.0) for q in sorted(atoms)}
    pattern = [0 if k == 0.0 else 1 if k > 0.0 else 2 for k in kap.values()]
    [(_, comps)] = _sums(g0[None], {q: np.array([k]) for q, k in kap.items()},
                         atoms, pattern, mode)
    if isinstance(comps, Exception):
        raise comps
    rules = ["sum-rule" if atoms else "smooth-gradient"] + [
        ("abs-kink" if atoms[q].kind == "abs" else "max-tie")
        + f"({q}, coeff={k:.6g})" for q, k in kap.items()]
    rules += ["hull-collapse"] * (mode == "hull")
    sset = PolytopeSet([Polytope(V[0]) for V in comps])
    return SubdiffResult(sset, mode, "exact" if _exactness(atoms)
                         else "outer-estimate", tuple(rules))


def _sets(g0: np.ndarray, kap: dict, atoms: dict[str, _Atom], mode: str):
    """The sets {g0} + each atom's contribution (in key order; then their
    hull in hull mode) of R rows g0 (R, d) and coefficients kap {atom key:
    (R,)}: [(rows, components)], vertex arrays (rows, k, d) whose shapes
    the rows share, or [(rows, the exception their sets raise)]."""
    keys, R = sorted(atoms), g0.shape[0]
    codes = np.array([np.where(kap[q] == 0.0, 0, np.where(kap[q] > 0.0, 1, 2))
                      for q in keys], dtype=int).reshape(-1, R)
    out = []
    for first, rows in _row_groups(codes.T):
        out.extend((rows[sub], comps) for sub, comps in _sums(
            g0[rows], {q: kap[q][rows] for q in keys}, atoms,
            codes[:, first].tolist(), mode))
    return out


def _row_groups(A: np.ndarray) -> list[tuple[int, np.ndarray]]:
    """The distinct rows of A (R, w) in order of first occurrence: the
    index of the first and the indices of every row equal to it."""
    _, first, inverse = np.unique(A, axis=0, return_index=True,
                                  return_inverse=True)
    inverse = inverse.reshape(-1)
    return [(first[u], np.flatnonzero(inverse == u))
            for u in np.argsort(first).tolist()]


def _sums(g0: np.ndarray, kap: dict, atoms: dict[str, _Atom], pattern,
          mode: str):
    """_sets for rows of one sign pattern (0 for a zero coefficient, 1 for
    a positive one, else 2).  A row that _canon flags goes on alone from
    that step, and the rows are regrouped by their components' shapes at
    the end.  A row ends at the first exception: an atom's fault under a
    nonzero coefficient, or one of its own reduction by Polytope."""
    steps = [(atoms[q], kap[q], c) for q, c in zip(sorted(atoms), pattern)]
    steps += [(None, None, 0)] * (mode == "hull")
    out, shapes, todo = [], {}, [(np.arange(g0.shape[0]), [g0[:, None]], 0)]
    while todo:
        rows, comps, i = todo.pop()
        for i, (atom, k, c) in enumerate(steps[i:], i):
            try:
                if c and atom.fault is not None:
                    raise atom.fault.with_traceback(None)
                new, flags = _step(comps, atom, c and k[rows], c)
            except Exception as exc:  # what a call raises for this row
                comps = exc
                break
            if flags:  # those rows go on alone from this step
                bad = np.logical_or.reduce(flags)
                todo.extend((rows[r:r + 1], [A[r:r + 1] for A in comps], i)
                            for r in np.flatnonzero(bad).tolist())
                rows, new = rows[~bad], [V[~bad] for V in new]
                if not rows.size:
                    break
            comps = new
        if isinstance(comps, Exception):
            out.append((rows, comps))
        elif rows.size:
            shapes.setdefault(tuple(V.shape[1] for V in comps), []).append(
                (rows, comps))
    for like in shapes.values():
        rows, comps = zip(*like)
        out.append(like[0] if len(like) == 1 else (np.concatenate(rows), [
            np.concatenate(Vs) for Vs in zip(*comps)]))
    return out


def _step(comps: list, atom: _Atom | None, k, c: int):
    """One step of _sums on rows whose components share their shapes: the
    sum with atom's contribution under the coefficients k (rows,) of sign
    code c, or the hull when atom is None; and _canon's flags."""
    R, _, d = comps[0].shape
    flags = []
    if atom is None:
        return [_canon(np.concatenate(comps, axis=1), flags)], flags
    parts = [np.zeros((1, 1, d))]
    if c:
        k = k[:, None, None]
        # an abs kink gives -kappa g and kappa g, a max tie kappa g_i
        V = (np.concatenate([-k, k], axis=1) * atom.grads[0]
             if atom.kind == "abs" else k * atom.grads)
        parts = [V[:, i:i + 1] for i in range(V.shape[1])]
        if c == 1:  # one component, the hull of those points
            parts = [_canon(V, flags)]
    return [_canon((A[:, :, None] + B[:, None]).reshape(R, -1, d), flags)
            for A in comps for B in parts], flags


def _canon(V: np.ndarray, flags: list) -> np.ndarray:
    """Per row r of V (R, k, d): what Polytope(V[r], reduce=True) keeps.
    The rows whose shapes depend on their values (two vertices within
    VERTEX_TOL, NaN, or more than two) are flagged; a batch of one such
    row is reduced by Polytope itself."""
    R, k = V.shape[:2]
    W, flag = V, np.full(R, k > 2)
    if k == 2:
        a, b = V[:, 0], V[:, 1]
        # lexicographic, the first coordinate first; equal rows keep order
        swap = np.take_along_axis(b < a, (a != b).argmax(axis=1)[:, None], 1)
        W = np.where(swap[:, :, None], V[:, ::-1], V)
        flag = ~(np.abs(W[:, 1] - W[:, 0]).max(axis=1) > VERTEX_TOL)
    if R == 1 and flag[0]:
        return Polytope(V[0], reduce=True).vertices[None]
    if flag.any():
        flags.append(flag)
    return W


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
        self.plain = self.const == 1 and bool(self.factors)
        # two factors nonsmooth in x: the walk of f's product term refuses
        self.rough = self.error is None and sum(p[3] for p in self.parts) > 1


class Scalarization:
    """The subdifferential of <y*, f> at x, with sum_j y_j f_j
    differentiated as one assembled expression (shared atoms merge), each
    objective walked once for every y*.

    ``groups`` gives the sets of a whole (M, p) array of y*, one array pass
    per structure group; a call gives the SubdiffResult of one y*, as the
    batch of one plus its rules and exactness.  Both give what
    limiting_subdiff gives on the tree add(mul(const(y_1), f_1), ...), bit
    for bit and with the same exceptions, without building that tree (see
    the module docstring).
    """

    def __init__(self, fs, x, mode: str = "limiting",
                 kink_tol: float = DEFAULT_KINK_TOL):
        self.xl = np.asarray(x, dtype=float).reshape(-1).tolist()
        self.mode, self.kink_tol = mode, kink_tol
        self.zero = np.zeros(len(self.xl))
        self.objectives = [_Objective(f, self._walk()) for f in fs]

    def _walk(self) -> _PointWalk:
        return _PointWalk(self.xl, None, self.kink_tol)

    def __call__(self, ystar) -> SubdiffResult:
        key, cps = self._weights(
            np.asarray(ystar, dtype=float).reshape(-1).tolist())
        g0, kap, atoms = self._terms(key, np.array([cps]))
        return _one(g0[0], {q: float(a[0]) for q, a in kap.items()}, atoms,
                    self.mode)

    def groups(self, Y) -> list[tuple[np.ndarray, list | Exception]]:
        """The sets of the rows y* of Y (M, p) by group: (rows of Y,
        components), the components one vertex array (rows, k, d) per
        component slot; or (rows of Y, the exception a call raises for
        them).  The rows of a group share one zero pattern of the weights,
        one set of weights whose constant comes to 1, one sign of each
        atom's coefficient and the shapes of their components."""
        out, keys = self._keys(np.asarray(Y, dtype=float))
        for key, (rows, C) in keys.items():
            out.extend((rows[sub], comps) for sub, comps in _sets(
                *self._terms(key, C), self.mode))
        return out

    def _keys(self, Y: np.ndarray):
        """The rows of Y whose weights a call refuses, with the exception,
        and the others by structure key in order of first row: each key's
        rows and constants (rows, terms marked 2).  Where every objective
        is plain, the rows of finite weights fold in one array pass; the
        refusals after the fold run once per key."""
        fast = np.isfinite(Y).all(axis=1) & (Y.shape[1:] == (len(
            self.objectives),) and all(ob.plain for ob in self.objectives))
        refused, keys = [], {}
        for r in np.flatnonzero(~fast).tolist():
            try:
                key, cps = self._weights(Y[r].tolist(), refuse=False)
            except Exception as exc:  # what a call for this y* raises
                refused.append((np.array([r]), exc))
                continue
            keys.setdefault(key, []).append((r, cps))
        keys = {key: (np.array([r for r, _ in members]),
                      np.array([c for _, c in members]))
                for key, members in keys.items()}
        rows = np.flatnonzero(fast)
        # a weight 0 drops its term, 1 leaves it unit, else its constant is y
        S = np.where(Y[rows] == 0, 0, np.where(Y[rows] == 1, 1, 2))
        for first, sub in _row_groups(S):
            try:  # the first row's constants, those of the key's unit terms
                key, _ = self._weights(Y[rows[first]].tolist(), refuse=False)
            except Exception as exc:
                refused.append((rows[sub], exc))
                continue
            keys[key] = rows[sub], Y[np.ix_(rows[sub],
                                            np.flatnonzero(S[first] == 2))]
        for key, (rows, _) in list(keys.items()):
            # the first row's refusal, but a refused product term names
            # each row's constant
            each = any(ob.rough for ob, state in zip(self.objectives, key[0])
                       if state == 2)
            for sub in np.split(rows, rows.size) if each else [rows]:
                try:
                    self._weights(Y[sub[0]].tolist())
                except Exception as exc:  # what a call for these y* raises
                    refused.append((sub, exc))
                    keys.pop(key, None)
        return refused, keys

    def _weights(self, ys: list, refuse: bool = True) -> tuple[tuple,
                                                              list[float]]:
        """The weights ys refused where the tree and its walk refuse them
        (refuse False: where its constants do); else the structure they
        give the tree (per objective 0 where its term drops, 1 where its
        constant comes to 1, else 2; and whether the constants sum to
        nonzero) and the float constants of the terms marked 2."""
        if len(ys) != len(self.objectives):
            raise ValueError("weight/objective count mismatch")
        # the tree's constants, refused where mul and add refuse them
        states, kept, cps, csum = [], [], [], Fraction(0)
        for y, ob in zip(ys, self.objectives):
            # Fraction(y) * 1 is y, and Fraction(y) refuses inf and NaN
            cp = (y if ob.plain and math.isfinite(y)
                  else Fraction(y) * ob.const)
            states.append(0)
            if cp == 0:
                continue
            if not ob.factors or cp != 1 and ob.const != 1:
                const(cp)  # a float y times 1 always fits
            if not ob.factors:
                csum += cp
                continue
            kept.append((ob, cp))
            states[-1] = 1 if cp == 1 else 2
            if cp == 1:
                csum += ob.unit_const
            else:
                cps.append(float(cp))
        if csum:
            const(csum)
        if not refuse:
            return (tuple(states), csum != 0), cps
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
        return (tuple(states), csum != 0), cps

    def _terms(self, key: tuple, C: np.ndarray):
        """g0 (R, d), each atom's coefficient (R,) and the merged atoms, for
        R weight rows of one structure whose constants marked 2 are the
        columns of C: the walk's product and sum rules above the
        objectives, run on columns (R, 1) where a call runs on floats."""
        states, nonzero = key
        cols = iter(C.T[:, :, None])
        rest, atoms = [], {}
        for ob, state in zip(self.objectives, states):
            if state == 1:
                rest.extend(ob.unit)
            elif state == 2:
                rest.append(_prod_rule([(next(cols), self.zero, {}, False)]
                                       + ob.parts, self.zero))
            for q, atom in ob.atoms.items() if state else ():
                first = atoms.setdefault(q, atom)
                if first.ctx_linear and not atom.ctx_linear:
                    atoms[q] = replace(first, ctx_linear=False)
        if nonzero or not rest:
            # the constants' term; no rule reads its value
            rest.append((0.0, self.zero, {}, False))
        _, g, kap, _ = rest[0] if len(rest) == 1 else _sum_rule(rest,
                                                                self.zero)
        R = C.shape[0]
        return (np.broadcast_to(g, (R, self.zero.size)),
                {q: np.broadcast_to(kap.get(q, 0.0), (R, 1))[:, 0]
                 for q in atoms}, atoms)


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
                   use_fixtures: bool = False) -> tuple[PolytopeSet, str]:
    """Sup-rule hull of constraint i (1-based) at x with provenance, over
    the active scenarios of acts, the caller's compute_active_sets(spec, x)."""
    con = spec.constraints[i - 1]
    if use_fixtures:
        fx = spec.fixture_for(con.name, x)
        if fx is not None:
            return fx, "fixture"
    return sup_rule(con, x, acts.scenarios[i - 1], "hull",
                    spec.kink_tol).set, "engine"
