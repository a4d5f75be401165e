"""Expression DSL for the piecewise-smooth functions this toolkit can analyze.

The grammar is deliberately small: rational constants, coordinates x1..xd,
one scenario symbol v, sums, products, integer powers, reciprocals, square
roots, absolute values and finite maxima.  Everything downstream (worst-case
envelopes, subdifferential sets, certificates) relies on being able to walk
these trees and reason about their kinks, so no general function calls or
transcendentals are admitted.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from functools import cached_property, lru_cache, partial, reduce
from itertools import repeat
from typing import NamedTuple

import numpy as np


class ExprError(Exception):
    """Base class for DSL errors."""


class ParseError(ExprError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class DomainError(ExprError):
    """Division by zero, square root of a negative value, a float power
    that overflows, or a constant too large for a float."""


class ScenarioMismatchError(ExprError):
    """Scenario value supplied for a v-free expression, or missing."""


class UnsupportedStructureError(ExprError):
    """Expression shape outside the subdifferential calculus in scope."""


# Node kinds: const, coord, uvar, sum, prod, pow, recip, sqrt, abs, max.
@dataclass(frozen=True)
class Expr:
    kind: str
    children: tuple["Expr", ...] = ()
    value: Fraction | None = None  # const only
    index: int | None = None       # coord only, 1-based
    exponent: int | None = None    # pow only, >= 1

    def __str__(self) -> str:
        return format_expr(self)

    @cached_property
    def has_v(self) -> bool:
        """Whether the scenario symbol v occurs in this tree."""
        return any(n.kind == "uvar" for n in _nodes(self))

    @cached_property
    def scalar_fn(self):
        """This tree compiled to ``f(x, v) -> float`` (see ``_compile``).

        x is a list of Python floats; v is ignored when the tree has no v.
        Built on first use and kept on this node, which ``parse_expr``
        shares among all its calls with the same text and dimension.
        """
        return _compile(self)

    @cached_property
    def grid_fn(self):
        """This tree compiled to ``f(X, scenarios)``, which yields its values
        over the cells of the grid X at each scenario (see ``_compile``)."""
        return _compile(self, GRID)

    @cached_property
    def scan_fn(self):
        """This tree compiled to ``f(x, V)``, its values at x at every
        scenario of the array V (see ``_compile``)."""
        return _compile(self, SCAN)

    @cached_property
    def walk_fn(self):
        """This tree compiled to ``f(x, v, tol, ctx)``, its walk at the
        point x with its kinks within tol (see ``_compile``)."""
        return _compile(self, WALK)


# ---------------------------------------------------------------------------
# Constructors with light canonicalization (constant folding, flattening).
# Folding keeps parse(print(parse(s))) structurally stable.
# ---------------------------------------------------------------------------

def const(q) -> Expr:
    q = Fraction(q)
    try:
        float(q)
    except OverflowError:
        raise DomainError("constant too large for a float") from None
    return Expr("const", value=q)


def decimal_fraction(text: str) -> Fraction:
    """The exact value of a decimal literal (InvalidOperation if text is
    not one).  One whose decimal exponent exceeds 1000 in magnitude is
    refused first: the Fraction of 1eN takes time superlinear in N.  Every
    float, and every underflow to zero down to 1e-1000, is within bounds."""
    d = Decimal(text)
    if not d.is_zero() and abs(d.adjusted()) > 1000:
        raise DomainError(f"literal {text} has a decimal exponent of "
                          "magnitude above 1000")
    return Fraction(d)


def coord(k: int) -> Expr:
    if k < 1:
        raise ValueError("coordinate index must be >= 1")
    return Expr("coord", index=k)


def uvar() -> Expr:
    return Expr("uvar")


def add(*terms: Expr) -> Expr:
    flat: list[Expr] = []
    csum = Fraction(0)
    for t in terms:
        if t.kind == "sum":
            flat.extend(t.children)
        else:
            flat.append(t)
    rest = []
    for t in flat:
        if t.kind == "const":
            csum += t.value
        else:
            rest.append(t)
    if csum != 0 or not rest:
        rest = rest + [const(csum)]
    if len(rest) == 1:
        return rest[0]
    return Expr("sum", children=tuple(rest))


def mul(*factors: Expr) -> Expr:
    flat: list[Expr] = []
    cprod = Fraction(1)
    for f in factors:
        if f.kind == "prod":
            flat.extend(f.children)
        else:
            flat.append(f)
    rest = []
    for f in flat:
        if f.kind == "const":
            cprod *= f.value
        else:
            rest.append(f)
    if cprod == 0:
        return const(0)
    if not rest:
        return const(cprod)
    if cprod != 1:
        rest = [const(cprod)] + rest
    if len(rest) == 1:
        return rest[0]
    return Expr("prod", children=tuple(rest))


def negate(e: Expr) -> Expr:
    return mul(const(-1), e)


def pow_(base: Expr, n: int) -> Expr:
    if n < 1:
        raise ValueError("integer power must be >= 1")
    if n == 1:
        return base
    if base.kind == "const":
        return const(base.value ** n)
    if base.kind == "pow":
        return pow_(base.children[0], base.exponent * n)
    return Expr("pow", children=(base,), exponent=n)


def recip(e: Expr, pos: int = 0) -> Expr:
    """1/e; pos is where a parse error places a constant zero e."""
    if e.kind == "const":
        if e.value == 0:
            raise ParseError("division by constant zero", pos)
        return const(Fraction(1) / e.value)
    return Expr("recip", children=(e,))


def sqrt_(e: Expr) -> Expr:
    return Expr("sqrt", children=(e,))


def abs_(e: Expr) -> Expr:
    if e.kind == "const":
        return const(abs(e.value))
    return Expr("abs", children=(e,))


def max_(*branches: Expr) -> Expr:
    if len(branches) < 1:
        raise ValueError("max needs at least one branch")
    if len(branches) == 1:
        return branches[0]
    if all(b.kind == "const" for b in branches):
        return const(max(b.value for b in branches))
    return Expr("max", children=tuple(branches))


# ---------------------------------------------------------------------------
# Tokenizer / recursive-descent parser
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),]))"
)


class _Tok(NamedTuple):
    kind: str  # num | name | op | end
    text: str
    pos: int


def _tokenize(text: str) -> list[_Tok]:
    toks = []
    i = 0
    while i < len(text):
        m = _TOKEN_RE.match(text, i)
        if m is None or m.end() == i:
            if text[i:].strip() == "":
                break
            raise ParseError(f"unexpected character {text[i:].strip()[0]!r}", i)
        if m.group("num") is not None:
            toks.append(_Tok("num", m.group("num"), m.start("num")))
        elif m.group("name") is not None:
            toks.append(_Tok("name", m.group("name"), m.start("name")))
        else:
            toks.append(_Tok("op", m.group("op"), m.start("op")))
        i = m.end()
    toks.append(_Tok("end", "", len(text)))
    return toks


# Deepest nesting of parentheses, function arguments and sign prefixes the
# parser accepts; each level costs several Python frames here and in the
# recursive walks that remain (printing and the structure queries), and
# about two in the point walk per nested abs or max; the code generator
# and the scalar, grid and scan code do not recurse.
MAX_NESTING = 100


class _Parser:
    def __init__(self, text: str, dim: int):
        self.text = text
        self.dim = dim
        self.toks = _tokenize(text)
        self.i = 0
        self.depth = 0

    def peek(self) -> _Tok:
        return self.toks[self.i]

    def take(self) -> _Tok:
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect_op(self, op: str) -> _Tok:
        t = self.take()
        if t.kind != "op" or t.text != op:
            raise ParseError(f"expected {op!r}, found {t.text!r}", t.pos)
        return t

    def parse(self) -> Expr:
        e = self.expr()
        t = self.peek()
        if t.kind != "end":
            raise ParseError(f"trailing input {t.text!r}", t.pos)
        return e

    def nest(self) -> None:
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(
                f"expression nested deeper than {MAX_NESTING} levels",
                self.peek().pos)

    def expr(self) -> Expr:
        self.nest()
        e = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.take().text
            rhs = self.term()
            e = add(e, rhs if op == "+" else negate(rhs))
        self.depth -= 1
        return e

    def term(self) -> Expr:
        e = self.unary()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.take()
            rhs = self.unary()
            e = mul(e, rhs if op.text == "*" else recip(rhs, op.pos))
        return e

    def unary(self) -> Expr:
        t = self.peek()
        if t.kind == "op" and t.text in "+-":
            self.take()
            self.nest()
            inner = self.unary()
            self.depth -= 1
            return inner if t.text == "+" else negate(inner)
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        while self.peek().kind == "op" and self.peek().text == "^":
            self.take()
            t = self.take()
            if t.kind != "num" or not re.fullmatch(r"\d+", t.text):
                raise ParseError("exponent must be a positive integer literal", t.pos)
            n = int(t.text)
            if n < 1:
                raise ParseError("exponent must be >= 1", t.pos)
            base = pow_(base, n)
        return base

    def atom(self) -> Expr:
        t = self.take()
        if t.kind == "num":
            try:
                q = decimal_fraction(t.text)
            except InvalidOperation:
                raise ParseError(f"bad numeric literal {t.text!r}", t.pos)
            return const(q)
        if t.kind == "op" and t.text == "(":
            e = self.expr()
            self.expect_op(")")
            return e
        if t.kind == "name":
            if t.text in ("abs", "sqrt"):
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return abs_(arg) if t.text == "abs" else sqrt_(arg)
            if t.text == "max":
                self.expect_op("(")
                args = [self.expr()]
                while self.peek().kind == "op" and self.peek().text == ",":
                    self.take()
                    args.append(self.expr())
                self.expect_op(")")
                if len(args) < 2:
                    raise ParseError("max needs at least two arguments", t.pos)
                return max_(*args)
            if t.text == "v":
                return uvar()
            m = re.fullmatch(r"x(\d+)", t.text)
            if m:
                k = int(m.group(1))
                if not (1 <= k <= self.dim):
                    raise ParseError(
                        f"coordinate x{k} out of range 1..{self.dim}", t.pos)
                return coord(k)
            raise ParseError(f"unknown identifier {t.text!r}", t.pos)
        raise ParseError(f"unexpected token {t.text!r}", t.pos)


@lru_cache(maxsize=1024)
def parse_expr(text: str, dim: int) -> Expr:
    """Parse ``text`` into an expression tree over R^dim (plus the symbol v).

    Memoised on ``(text, dim)``: every later call with the same text and
    dimension returns the same tree, with the code its nodes have compiled
    so far, so a process that loads one problem file many times parses and
    compiles each expression once.  The tree is shared and must be treated
    as immutable.  Errors are not memoised: a bad text raises again.
    """
    if dim < 0:
        raise ValueError("dim must be >= 0")
    return _Parser(text, dim).parse()


# ---------------------------------------------------------------------------
# Printing (round-trip stable against parse_expr)
# ---------------------------------------------------------------------------

def _fmt_const(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def format_expr(e: Expr) -> str:
    if e.kind == "const":
        return _fmt_const(e.value)
    if e.kind == "coord":
        return f"x{e.index}"
    if e.kind == "uvar":
        return "v"
    if e.kind == "sum":
        parts = [format_expr(e.children[0])]
        for t in e.children[1:]:
            neg = _split_negative(t)
            if neg is not None:
                parts.append(" - " + format_expr(neg))
            else:
                parts.append(" + " + format_expr(t))
        return "".join(parts)
    if e.kind == "prod":
        return _fmt_prod(e.children)
    if e.kind == "pow":
        base = e.children[0]
        btxt = format_expr(base)
        if base.kind in ("sum", "prod", "recip") or (
                base.kind == "const" and base.value < 0):
            btxt = f"({btxt})"
        return f"{btxt}^{e.exponent}"
    if e.kind == "recip":
        return "1/" + _paren_factor(e.children[0], tight=True)
    if e.kind in ("abs", "sqrt"):
        return f"{e.kind}({format_expr(e.children[0])})"
    if e.kind == "max":
        return "max(" + ", ".join(format_expr(c) for c in e.children) + ")"
    raise ValueError(f"unknown node kind {e.kind}")


def _fmt_prod(kids: tuple[Expr, ...]) -> str:
    """A product node with the factors kids, printed."""
    lead = ""
    if kids[0].kind == "const" and kids[0].value == -1 and len(kids) > 1:
        lead = "-"
        kids = kids[1:]
    return lead + "*".join(_paren_factor(c) for c in kids)


def _split_negative(t: Expr) -> Expr | None:
    """Return u with t == -u when t has a plainly negative leading constant."""
    if t.kind == "const" and t.value < 0:
        return const(-t.value)
    if t.kind == "prod" and t.children[0].kind == "const" and t.children[0].value < 0:
        # the factors as they stand: mul would fold a 0 among them away
        lead = -t.children[0].value
        kids = t.children[1:] if lead == 1 else (const(lead), *t.children[1:])
        return kids[0] if len(kids) == 1 else Expr("prod", children=kids)
    return None


def _paren_factor(c: Expr, tight: bool = False) -> str:
    txt = format_expr(c)
    if c.kind == "sum" or (c.kind == "const" and (c.value < 0 or (
            tight and c.value.denominator != 1))) or (tight and c.kind == "prod"):
        return f"({txt})"
    return txt


# ---------------------------------------------------------------------------
# Structure queries
# ---------------------------------------------------------------------------

def _nodes(e: Expr):
    """Every node of the tree, without recursion."""
    stack = [e]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(node.children)


def contains_coord(e: Expr) -> bool:
    return any(n.kind == "coord" for n in _nodes(e))


def coords_used(e: Expr) -> frozenset[int]:
    return frozenset(n.index for n in _nodes(e) if n.kind == "coord")


def is_affine(e: Expr) -> bool:
    """True when the node is affine in x for every fixed scenario value.

    Products count as affine only when at most one factor touches x.
    """
    if e.kind in ("const", "coord", "uvar"):
        return True
    if e.kind == "prod" and sum(map(contains_coord, e.children)) > 1:
        return False
    if e.kind in ("sum", "prod"):
        return all(is_affine(c) for c in e.children)
    if e.kind in ("pow", "recip", "sqrt", "abs", "max"):
        # Nonlinear in x unless x-free entirely.
        return not contains_coord(e)
    return False


def separable_branches(e: Expr) -> list | None:
    """The branches of e's top-level max, each as (terms, feature) for
    c(x) + a(v)*h(x) + b(v): a term is a product of pure factors, split as
    (x-free factors with v, v-free rest); the terms whose rest touches x
    share, up to order, the v factors ``feature``, whose product is a(v).
    None when a factor mixes x and v or a branch has two features."""
    if e.kind == "max":
        subs = [separable_branches(c) for c in e.children]
        return None if None in subs else [b for sub in subs for b in sub]
    terms, features = [], {}
    for t in e.children if e.kind == "sum" else (e,):
        factors = t.children if t.kind == "prod" else (t,)
        withv = tuple(f for f in factors if f.has_v)
        rest = tuple(f for f in factors if not f.has_v)
        if any(contains_coord(f) for f in withv):
            return None
        if withv and any(contains_coord(f) for f in rest):
            features.setdefault(frozenset(Counter(withv).items()), withv)
        terms.append((withv, rest))
    if len(features) > 1:
        return None
    return [(terms, next(iter(features.values()), ()))]


# ---------------------------------------------------------------------------
# Evaluation: one code generator, a scalar target (strict), a grid target
# (vectorized, NaN-tolerant), a scan target (all scenarios at a point) and
# a walk target (value, gradient and active atoms at a point)
# ---------------------------------------------------------------------------

def _check_scenario(e: Expr, v) -> None:
    if e.has_v and v is None:
        raise ScenarioMismatchError("expression uses v but no scenario value given")
    if not e.has_v and v is not None:
        raise ScenarioMismatchError("scenario value given for a v-free expression")


def _floats(x) -> list[float]:
    """A point as the list of Python floats that ``Expr.scalar_fn`` takes."""
    return np.asarray(x, dtype=float).reshape(-1).tolist()


def eval_expr(e: Expr, x, v: float | None = None) -> float:
    """Evaluate at a point, raising DomainError on 1/0 or sqrt(negative)."""
    _check_scenario(e, v)
    return e.scalar_fn(_floats(x), v)


def _recip(d: float, e: Expr) -> float:
    if d == 0.0:
        raise DomainError(f"division by zero in 1/({e.children[0]})")
    return 1.0 / d


def _sqrt(a: float, e: Expr) -> float:
    if a < 0.0:
        raise DomainError(f"sqrt of negative value in sqrt({e.children[0]})")
    return a ** 0.5


def _power(a, n: int, e: Expr):
    """a ** n for the power node e, raising DomainError where a float
    power overflows (a Python float raises OverflowError; an array gives
    inf)."""
    try:
        return a ** n
    except OverflowError:
        raise DomainError(f"{e} overflows") from None


def _nan_recip(d):
    """1/d over a grid, NaN where d is zero."""
    return np.where(d == 0.0, np.nan, 1.0) / np.where(d == 0.0, 1.0, d)


def _nan_sqrt(a):
    """sqrt(a) over a grid, NaN where a is negative."""
    return np.sqrt(np.where(a < 0.0, np.nan, a))


def _scan_power(a, n, e: Expr):
    """Python's float pow of each scenario value (numpy's ``**`` and sqrt
    are not libm's pow), raising DomainError where one overflows."""
    try:
        return np.fromiter(map(pow, a.tolist(), repeat(n)), float, a.size)
    except OverflowError:
        raise DomainError(f"{e} overflows") from None


class _Atom(NamedTuple):
    """An abs node at its kink or a max node at a tie, with the gradients
    of its argument (or of its tied branches) at the point.  fault is the
    first DomainError those gradients met; it counts only where a nonzero
    coefficient needs them."""
    key: str
    kind: str                  # "abs" | "max"
    node: Expr
    tied: tuple[int, ...]
    ctx_linear: bool           # constant coefficient context
    x_relevant: bool
    grads: list[np.ndarray]
    fault: DomainError | None


# A max branch within this of the winning one counts as tied (a kink).
DEFAULT_KINK_TOL = 1e-9

# A node's walk result: (value, x-gradient, coefficient of each active atom
# below by key, rough: one of those atoms reads x, those atoms by key,
# first gradient fault, its operands' results), the atoms merged by
# _merge.  An abs or max node walks only what its children's scalar values
# select, so a refusal raises at once, as in a recursive walk; a fault
# (1/0, sqrt of a nonpositive value) lets the walk go on with NaN.  The
# faults inside an atom are its own.

def _merge(atoms: dict, more: dict) -> None:
    """Merge the atoms of more into atoms by key: the first of each key,
    with ctx_linear the and of all.  A merged atom is a new one, as the
    result it came from still holds the first."""
    for q, atom in more.items():
        first = atoms.setdefault(q, atom)
        if first.ctx_linear and not atom.ctx_linear:
            atoms[q] = first._replace(ctx_linear=False)


def _gather(parts):
    """The atoms and first fault of the results parts."""
    atoms, fault = {}, None
    for p in parts:
        fault = p[5] if fault is None else fault
        _merge(atoms, p[4])
    return atoms, fault


def _w_fold(parts, z: np.ndarray, e: Expr):
    """The sum or product node e from its operands' results parts."""
    atoms, fault = _gather(parts)
    if e.kind == "prod" and sum(p[3] for p in parts) > 1:
        raise _rough_product(e.children)
    rule = _sum_rule if e.kind == "sum" else _prod_rule
    return *rule(parts, z), atoms, fault, parts


def _rough_product(factors) -> UnsupportedStructureError:
    return UnsupportedStructureError(
        "product of two factors nonsmooth in x at this point: "
        + _fmt_prod(factors))


def _leaf_code(e: Expr, x, v, *walk):
    """The scalar code of the leaf e, or with walk (tol, ctx) its walk
    code, with no source to compile."""
    value = (float(e.value) if e.kind == "const" else
             x[e.index - 1] if e.kind == "coord" else float(v))
    if not walk:
        return value
    g = np.zeros(len(x))
    if e.kind == "coord":
        g[e.index - 1] = 1.0
    return value, g, {}, False, {}, None, ()


def _w_chain(a, e: Expr):
    """The abs, pow, recip or sqrt node e from its argument's result a: g
    times the slope, +-1, n u^(n-1), -1/u^2 or 0.5/sqrt(u)."""
    cv, cg, ck, rough, atoms, fault, _ = a
    own, u = None, e.children[0]
    if e.kind == "abs":
        val, slope = abs(cv), 1.0 if cv > 0 else -1.0
    elif e.kind == "pow":
        slope, val = (e.exponent * _power(cv, e.exponent - 1, e),
                      _power(cv, e.exponent, e))
    elif e.kind == "recip":
        if cv == 0.0:
            cv, own = math.nan, DomainError(f"division by zero in 1/({u})")
        square = cv * cv
        if not square:
            square, own = math.nan, DomainError(f"slope of 1/({u}) overflows")
        val, slope = 1.0 / cv, -1.0 / square
    else:
        if cv <= 0.0:
            cv, own = math.nan, DomainError(
                f"sqrt argument not positive in sqrt({u})")
        val = cv ** 0.5
        slope = 0.5 / val
    return (val, slope * cg, {q: slope * c for q, c in ck.items()}, rough,
            atoms, own if fault is None else fault, ())


def _w_select(e: Expr, x, v, tol: float, ctx: bool):
    """The abs or max node e, selected by its children's scalar values: an
    atom at a kink or a tie within tol, else the chain rule on the
    argument's walk or the winning branch's walk.  A max with a NaN branch,
    wherever it stands, or none within tol of its top, raises."""
    vals = [c.scalar_fn(x, v) for c in e.children]
    if e.kind == "abs":
        if abs(vals[0]) <= tol:
            return _w_kink(e, (), x, v, tol, ctx, abs(vals[0]))
        return _w_chain(e.children[0].walk_fn(x, v, tol, False), e)
    top = max(vals)
    tied = tuple(i for i, cv in enumerate(vals) if top - cv <= tol)
    if not tied or any(map(math.isnan, vals)):
        raise DomainError(f"NaN maximum in {e}")
    if len(tied) == 1:
        return e.children[tied[0]].walk_fn(x, v, tol, False)
    return _w_kink(e, tied, x, v, tol, ctx, top)


def _w_kink(e: Expr, tied: tuple, x, v, tol: float, ctx: bool, value):
    """The active atom e from the walks of its argument or tied branches,
    whose atoms and faults stay inside it."""
    key, grads, fault = format_expr(e), [], None
    branches = [e.children[i] for i in tied] or e.children
    for b in branches:
        _, g, _, nested, _, f, _ = b.walk_fn(x, v, tol, False)
        if nested:
            raise UnsupportedStructureError(f"active kink nested inside {key}")
        grads.append(g)
        fault = f if fault is None else fault
    xrel = any(map(contains_coord, branches))
    atom = _Atom(key, e.kind, e, tied, ctx, xrel, grads, fault)
    return value, np.zeros(len(x)), {key: 1.0}, xrel, {key: atom}, None, ()


def _sum_rule(parts, zero: np.ndarray):
    """The walk of a sum from the walks of its terms, in term order."""
    total, g, kap = 0.0, zero, {}
    for p in parts:
        total += p[0]
        g = g + p[1]
        for q, a in p[2].items():
            kap[q] = kap.get(q, 0.0) + a
    return total, g, kap, any(p[3] for p in parts)


def _prod_rule(parts, zero: np.ndarray):
    """The walk of a product from the walks of its factors, in factor
    order: each factor's gradient and coefficients times the product of
    the other factors' values."""
    total = 1.0
    for p in parts:
        total *= p[0]
    g, kap = zero, {}
    for j, p in enumerate(parts):
        rest = 1.0
        for i, o in enumerate(parts):
            if i != j:
                rest *= o[0]
        g = g + rest * p[1]
        for q, a in p[2].items():
            kap[q] = kap.get(q, 0.0) + rest * a
    return total, g, kap, any(p[3] for p in parts)


# Each node kind's right-hand side in the scalar, the grid, the scan and
# the walk code.  A scalar sum is the left fold from 0 (builtin ``sum``
# before Python 3.12 compensated it), a product starts from 1.0 and a max
# calls the builtin on a tuple; on the grid they are left folds from the
# first operand (0 + -0.0 is 0.0).  The scan code keeps the scalar rule
# where it gives the same bits per scenario, keeps the first of equal
# maxima as the builtin does (-0.0 before 0.0; np.maximum does not), and
# raises the scalar error on a zero divisor or negative root anywhere.
# Fields: {a} the first operand; {args}, {plus} and {times} all
# operands, joined by ", ", " + " and " * "; {c} a constant's float; {i} a
# coordinate's 0-based index; {n} a power's exponent; {node} the node;
# {ctx} its context in the walk, where an abs or max node is one helper
# call that walks what it selects.  const and uvar nodes are operands, not
# assignments, and so are coord nodes in the walk.
_CHAIN, _LEAF = "_w_chain({a}, {node})", "_leaf_code({node}, x, v, tol, ctx)"
_RULES = {
    "const": ("{c}",) * 3 + ("({c}, z, {{}}, False, {{}}, None, ())",),
    "uvar": ("v",) * 3 + ("(_float(v), z, {{}}, False, {{}}, None, ())",),
    "coord": ("x[{i}]", "X[{i}]", "x[{i}]", _LEAF),
    "sum": ("0 + {plus}", "{plus}", "0 + {plus}",
            "_w_fold(({args},), z, {node})"),
    "prod": ("1.0 * {times}", "{times}", "1.0 * {times}",
             "_w_fold(({args},), z, {node})"),
    "pow": ("_power({a}, {n}, {node})",) * 2
    + ("_scan_power({a}, {n}, {node})", _CHAIN),
    "recip": ("_recip({a}, {node})", "_nan_recip({a})",
              "1.0 / {a} if {a}.all() else _recip(0.0, {node})", _CHAIN),
    "sqrt": ("_sqrt({a}, {node})", "_nan_sqrt({a})",
             "_sqrt(-1.0, {node}) if ({a} < 0.0).any() "
             "else _scan_power({a}, 0.5, {node})", _CHAIN),
    "abs": ("_abs({a})", "_np_abs({a})", "_abs({a})",
            "_w_select({node}, x, v, tol, {ctx})"),
    "max": ("_max(({args},))", "_reduce(_maximum, ({args},))",
            "_reduce(_first_max, ({args},))",
            "_w_select({node}, x, v, tol, {ctx})"),
}
_HELPERS = {"_float": float, "_max": max, "_abs": abs,
            "_recip": _recip, "_sqrt": _sqrt, "_power": _power,
            "_nan_recip": _nan_recip, "_nan_sqrt": _nan_sqrt,
            "_np_abs": np.abs, "_reduce": reduce, "_maximum": np.maximum,
            "_scan_power": _scan_power,
            "_first_max": lambda a, b: np.where(b > a, b, a),
            "_zeros": np.zeros, "_leaf_code": _leaf_code,
            "_w_fold": _w_fold, "_w_select": _w_select,
            "_w_chain": _w_chain}
SCALAR, GRID, SCAN, WALK = range(4)  # the targets of _compile


@lru_cache(maxsize=1024)
def _maker(src: str):
    """The ``make`` that src defines; trees of one shape share it."""
    namespace: dict = {}
    exec(compile(src, "<robustkkt expression>", "exec"), {}, namespace)
    return namespace["make"]


def _compile(e: Expr, target: int = SCALAR):
    """Straight-line Python code for the tree, one assignment per node
    (see ``_RULES``), children before their parent, left to right: the
    float operations of a recursive walk, in the same order.  The scalar
    code ``f(x, v)`` returns a float and raises DomainError where the tree
    is undefined.  The grid code ``f(X, scenarios)`` yields the tree over
    the cells of X (see ``_on_grid``) at each scenario, NaN where it is
    undefined; each v-free node is assigned once, before the scenario loop.
    The scan code ``f(x, V)`` gives the tree at x for every scenario of the
    array V: its v-free nodes are the scalar code's floats, its nodes
    without x are computed once per V and kept with the tree for the last V
    (compared by its bytes, not its id).  It raises DomainError where the
    scalar code would at some scenario, not always with its message, and is
    otherwise bit-equal to it per scenario; its caller falls back to the
    scalar code on a DomainError or a value that is not finite.  The walk
    code ``f(x, v, tol, ctx)`` gives the root's walk result at (x, v), its
    kinks within tol, ctx whether the root's coefficient is constant; the
    other nodes' contexts are decided here.  Constants and scenarios stay
    as given: a power of Python floats raises DomainError where it
    overflows, one of a grid array or a numpy scalar gives inf.
    Constants, exponents, nodes and error messages reach the code as
    closure values, never as source text.  A leaf's scalar and walk code
    is ``_leaf_code``, with nothing to compile.  This function does not
    nest per tree level; the walk code of an abs or max calls that of the
    children it selects, about two frames per nesting (see MAX_NESTING).
    """
    if e.kind in ("const", "coord", "uvar") and target in (SCALAR, WALK):
        return partial(_leaf_code, e)
    values = dict(_HELPERS)
    fixed: list[str] = []   # scalar; walk; v-free grid; v-free scan with x
    looped: list[str] = []  # grid with v; scan with x and v
    xfree: list[str] = []   # scan without x

    def bind(value) -> str:
        name = f"c{len(values)}"
        values[name] = value
        return name

    def operand(node: Expr, args: list[tuple[str, bool, bool]],
                varies: bool, xdep: bool, lin: bool):
        k = node.kind
        if k not in _RULES:
            raise ValueError(f"unknown node kind {k}")
        rule = _RULES[k][SCALAR if target == SCAN and not varies else target]
        names = [a[0] for a in args]
        fields = {"a": names[0] if names else None, "args": ", ".join(names),
                  "plus": " + ".join(names), "times": " * ".join(names),
                  "ctx": "ctx" if lin else "False"}
        if k == "const":
            fields["c"] = bind(float(node.value))
        if k == "coord":
            fields["i"] = node.index - 1
        if "{n}" in rule:
            fields["n"] = bind(node.exponent)
        if "{node}" in rule:
            fields["node"] = bind(node)
        text = rule.format_map(fields)
        if not node.children and (k != "coord" or target == WALK):
            return text
        name = f"t{len(fixed) + len(looped) + len(xfree)}"
        (xfree if target == SCAN and not xdep else
         looped if target in (GRID, SCAN) and varies else fixed).append(
            f"{name} = {text}")
        return name

    # Post-order without recursion: a node is visited again, with the count
    # of its children, once their operands (and whether they use v and x)
    # are stacked; each entry carries whether its node is in the walk's
    # context.  In the walk an abs or max node stacks no child.
    todo: list[tuple[Expr, int | None, bool]] = [(e, None, target == WALK)]
    operands: list[tuple[str, bool, bool]] = []
    while todo:
        node, n, lin = todo.pop()
        if n is None:
            kids = () if target == WALK and node.kind in ("abs", "max") \
                else node.children
            # a sum keeps the walk's context, a product for each factor
            # whose other factors read no x
            reads = ([contains_coord(c) for c in kids]
                     if lin and node.kind == "prod" else [])
            keep = [lin and (node.kind == "sum" or node.kind == "prod" and not
                             any(r for o, r in zip(kids, reads) if o is not c))
                    for c in kids]
            todo.append((node, len(kids), lin))
            todo.extend(zip(reversed(kids), repeat(None), reversed(keep)))
            continue
        args = [operands.pop() for _ in range(n)][::-1]
        varies = node.kind == "uvar" or any(a[1] for a in args)
        xdep = node.kind == "coord" or any(a[2] for a in args)
        operands.append((operand(node, args, varies, xdep, lin), varies,
                         xdep))

    [(root, has_v, _)] = operands
    if target == GRID:
        body = ["def f(X, scenarios):", *fixed, "for v in scenarios:",
                *("    " + line for line in looped), f"    yield {root}"]
    elif target == SCALAR:
        body = ["def f(x, v):", *(["v = _float(v)"] if has_v else []), *fixed,
                f"return {root}"]
    elif target == WALK:
        body = ["def f(x, v, tol, ctx):", "z = _zeros(len(x))", *fixed,
                f"return {root}"]
    else:
        names = "".join(line.split(" = ")[0] + ", " for line in xfree)
        memo = bind([(None, None)])  # the last V's bytes, its x-free values
        body = ["def f(x, v):", f"seen, pre = {memo}[0]",
                "if seen == v.tobytes():", f"    ({names}) = pre", "else:",
                *("    " + line for line in xfree),
                f"    {memo}[0] = v.tobytes(), ({names})",
                *fixed, *looped, f"return {root}"]
    # each parameter costs compile time: drop the helpers the code does not
    # name (a name inside a longer one stays, unread)
    text = "\n".join(body)
    values = {k: val for k, val in values.items() if k in text}
    src = "\n".join([f"def make({', '.join(values)}):", "    " + body[0],
                     *("        " + s for s in body[1:]), "    return f"])
    return _maker(src)(**values)


def _on_grid(e: Expr, X, v=None):
    """e over X, float coordinate arrays that broadcast together, in the
    shape of those it reads: (n1, 1) for x1 alone on an open mesh."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        [out] = e.grid_fn(X, (v,))
    return out


def eval_on_grid(e: Expr, X: np.ndarray, v=None) -> np.ndarray:
    """Vectorized evaluation over columns of X (shape (d, N)).

    Domain violations yield NaN entries instead of raising; callers treat
    NaN as "undefined here" (a raster cell with NaN is reported infeasible).
    """
    _check_scenario(e, v)
    X = np.asarray(X, dtype=float)
    out = _on_grid(e, X, v)
    return np.broadcast_to(out, X.shape[1:]).copy() if np.ndim(out) == 0 else out


def eval_scenarios(e: Expr, scenarios) -> np.ndarray:
    """An x-free tree at each scenario, as the grid code computes it."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return np.fromiter(e.grid_fn(None, map(float, scenarios)), float)
