"""Expression DSL for the piecewise-smooth functions this toolkit can analyze.

The grammar is deliberately small: rational constants, coordinates x1..xd,
one scenario symbol v, sums, products, integer powers, reciprocals, square
roots, absolute values and finite maxima.  Everything downstream (worst-case
envelopes, subdifferential sets, certificates) relies on being able to walk
these trees and reason about their kinks, so no general function calls or
transcendentals are admitted.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from functools import cached_property, partial

import numpy as np


class ExprError(Exception):
    """Base class for DSL errors."""


class ParseError(ExprError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class DomainError(ExprError):
    """Division by zero or square root of a negative value."""


class ScenarioMismatchError(ExprError):
    """Scenario value supplied for a v-free expression, or missing."""


class NonsmoothPointError(ExprError):
    """A kink or max tie is active at the query point."""


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
    span: tuple[int, int] = field(default=(0, 0), compare=False)

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
        Built on first use and kept on this node only.
        """
        return _compile(self)


# ---------------------------------------------------------------------------
# Constructors with light canonicalization (constant folding, flattening).
# Folding keeps parse(print(parse(s))) structurally stable.
# ---------------------------------------------------------------------------

def const(q, span=(0, 0)) -> Expr:
    return Expr("const", value=Fraction(q), span=span)


def coord(k: int, span=(0, 0)) -> Expr:
    if k < 1:
        raise ValueError("coordinate index must be >= 1")
    return Expr("coord", index=k, span=span)


def uvar(span=(0, 0)) -> Expr:
    return Expr("uvar", span=span)


def add(*terms: Expr, span=(0, 0)) -> Expr:
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
    return Expr("sum", children=tuple(rest), span=span)


def mul(*factors: Expr, span=(0, 0)) -> Expr:
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
        return const(0, span=span)
    if not rest:
        return const(cprod, span=span)
    if cprod != 1:
        rest = [const(cprod)] + rest
    if len(rest) == 1:
        return rest[0]
    return Expr("prod", children=tuple(rest), span=span)


def negate(e: Expr) -> Expr:
    return mul(const(-1), e)


def pow_(base: Expr, n: int, span=(0, 0)) -> Expr:
    if n < 1:
        raise ValueError("integer power must be >= 1")
    if n == 1:
        return base
    if base.kind == "const":
        return const(base.value ** n, span=span)
    if base.kind == "pow":
        return pow_(base.children[0], base.exponent * n, span=span)
    return Expr("pow", children=(base,), exponent=n, span=span)


def recip(e: Expr, span=(0, 0)) -> Expr:
    if e.kind == "const":
        if e.value == 0:
            raise ParseError("division by constant zero", span[0])
        return const(Fraction(1) / e.value, span=span)
    return Expr("recip", children=(e,), span=span)


def sqrt_(e: Expr, span=(0, 0)) -> Expr:
    return Expr("sqrt", children=(e,), span=span)


def abs_(e: Expr, span=(0, 0)) -> Expr:
    if e.kind == "const":
        return const(abs(e.value), span=span)
    return Expr("abs", children=(e,), span=span)


def max_(*branches: Expr, span=(0, 0)) -> Expr:
    if len(branches) < 1:
        raise ValueError("max needs at least one branch")
    if len(branches) == 1:
        return branches[0]
    if all(b.kind == "const" for b in branches):
        return const(max(b.value for b in branches), span=span)
    return Expr("max", children=tuple(branches), span=span)


# ---------------------------------------------------------------------------
# Tokenizer / recursive-descent parser
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),]))"
)


@dataclass(frozen=True)
class _Tok:
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
# recursive tree walkers.
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
        start = self.peek().pos
        e = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.take().text
            rhs = self.term()
            e = add(e, rhs if op == "+" else negate(rhs), span=(start, self._end()))
        self.depth -= 1
        return e

    def term(self) -> Expr:
        start = self.peek().pos
        e = self.unary()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.take()
            rhs = self.unary()
            if op.text == "*":
                e = mul(e, rhs, span=(start, self._end()))
            else:
                e = mul(e, recip(rhs, span=(op.pos, self._end())),
                        span=(start, self._end()))
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
            caret = self.take()
            t = self.take()
            if t.kind != "num" or not re.fullmatch(r"\d+", t.text):
                raise ParseError("exponent must be a positive integer literal", t.pos)
            n = int(t.text)
            if n < 1:
                raise ParseError("exponent must be >= 1", t.pos)
            base = pow_(base, n, span=(base.span[0], caret.pos + len(t.text)))
        return base

    def atom(self) -> Expr:
        t = self.take()
        if t.kind == "num":
            try:
                q = Fraction(Decimal(t.text))
            except InvalidOperation:
                raise ParseError(f"bad numeric literal {t.text!r}", t.pos)
            return const(q, span=(t.pos, t.pos + len(t.text)))
        if t.kind == "op" and t.text == "(":
            e = self.expr()
            self.expect_op(")")
            return e
        if t.kind == "name":
            if t.text in ("abs", "sqrt"):
                self.expect_op("(")
                arg = self.expr()
                close = self.expect_op(")")
                f = abs_ if t.text == "abs" else sqrt_
                return f(arg, span=(t.pos, close.pos + 1))
            if t.text == "max":
                self.expect_op("(")
                args = [self.expr()]
                while self.peek().kind == "op" and self.peek().text == ",":
                    self.take()
                    args.append(self.expr())
                close = self.expect_op(")")
                if len(args) < 2:
                    raise ParseError("max needs at least two arguments", t.pos)
                return max_(*args, span=(t.pos, close.pos + 1))
            if t.text == "v":
                return uvar(span=(t.pos, t.pos + 1))
            m = re.fullmatch(r"x(\d+)", t.text)
            if m:
                k = int(m.group(1))
                if not (1 <= k <= self.dim):
                    raise ParseError(
                        f"coordinate x{k} out of range 1..{self.dim}", t.pos)
                return coord(k, span=(t.pos, t.pos + len(t.text)))
            raise ParseError(f"unknown identifier {t.text!r}", t.pos)
        raise ParseError(f"unexpected token {t.text!r}", t.pos)

    def _end(self) -> int:
        return self.toks[self.i - 1].pos if self.i else 0


def parse_expr(text: str, dim: int) -> Expr:
    """Parse ``text`` into an expression tree over R^dim (plus the symbol v)."""
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
        kids = e.children
        lead = ""
        if kids[0].kind == "const" and kids[0].value == -1 and len(kids) > 1:
            lead = "-"
            kids = kids[1:]
        return lead + "*".join(_paren_factor(c) for c in kids)
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


def _split_negative(t: Expr) -> Expr | None:
    """Return u with t == -u when t has a plainly negative leading constant."""
    if t.kind == "const" and t.value < 0:
        return const(-t.value)
    if t.kind == "prod" and t.children[0].kind == "const" and t.children[0].value < 0:
        return mul(const(-t.children[0].value), *t.children[1:])
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


def contains_uncertainty(e: Expr) -> bool:
    return e.has_v


def contains_coord(e: Expr) -> bool:
    if e.kind == "coord":
        return True
    return any(contains_coord(c) for c in e.children)


def coords_used(e: Expr) -> frozenset[int]:
    if e.kind == "coord":
        return frozenset([e.index])
    out: frozenset[int] = frozenset()
    for c in e.children:
        out |= coords_used(c)
    return out


def is_affine(e: Expr) -> bool:
    """True when the node is affine in x for every fixed scenario value.

    Products count as affine only when at most one factor touches x.
    """
    if e.kind in ("const", "coord", "uvar"):
        return True
    if e.kind == "sum":
        return all(is_affine(c) for c in e.children)
    if e.kind == "prod":
        xdep = [c for c in e.children if contains_coord(c)]
        if len(xdep) > 1:
            return False
        return all(is_affine(c) for c in e.children)
    if e.kind in ("pow", "recip", "sqrt", "abs", "max"):
        # Nonlinear in x unless x-free entirely.
        return not contains_coord(e)
    return False


# ---------------------------------------------------------------------------
# Evaluation (scalar, strict) and grid evaluation (vectorized, NaN-tolerant)
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


def scenario_fn(e: Expr, x):
    """``v -> eval_expr(e, x, v)`` for a scenario scan at one point x.

    x is converted and the scenario use of e checked once, not per call.
    """
    _check_scenario(e, 0.0)
    return partial(e.scalar_fn, _floats(x))


def _recip(d: float, message: str) -> float:
    if d == 0.0:
        raise DomainError(message)
    return 1.0 / d


def _sqrt(a: float, message: str) -> float:
    if a < 0.0:
        raise DomainError(message)
    return a ** 0.5


def _compile(e: Expr):
    """Straight-line Python code for the tree: one assignment per node.

    Children are assigned before their parent, left to right, so the code
    performs the float operations of a recursive walk in the same order and
    raises the same errors: sums and maxima call the builtins on a tuple, a
    product is ``1.0 * a * b``, a power ``a ** n``, a square root
    ``a ** 0.5``.  Constants, exponents and error messages reach the code as
    closure values, never as source text.  Neither this function nor the
    code it writes nests per tree level, so any tree the parser accepts
    compiles.
    """
    values = {"_sum": sum, "_max": max, "_abs": abs, "_recip": _recip,
              "_sqrt": _sqrt}
    lines: list[str] = []

    def bind(value) -> str:
        name = f"c{len(values)}"
        values[name] = value
        return name

    def operand(node: Expr, args: list[str]) -> str:
        k = node.kind
        if k == "const":
            return bind(float(node.value))
        if k == "uvar":
            return "v"
        if k == "coord":
            rhs = f"x[{node.index - 1}]"
        elif k == "sum":
            rhs = f"_sum(({', '.join(args)},))"
        elif k == "prod":
            rhs = "1.0 * " + " * ".join(args)
        elif k == "pow":
            rhs = f"{args[0]} ** {bind(node.exponent)}"
        elif k == "recip":
            msg = bind(f"division by zero in 1/({node.children[0]})")
            rhs = f"_recip({args[0]}, {msg})"
        elif k == "sqrt":
            msg = bind(f"sqrt of negative value in sqrt({node.children[0]})")
            rhs = f"_sqrt({args[0]}, {msg})"
        elif k == "abs":
            rhs = f"_abs({args[0]})"
        elif k == "max":
            rhs = f"_max(({', '.join(args)},))"
        else:
            raise ValueError(f"unknown node kind {k}")
        lines.append(f"        t{len(lines)} = {rhs}")
        return f"t{len(lines) - 1}"

    # Post-order without recursion: a node is visited again, marked ready,
    # once its children's operands are on the operand stack.
    todo: list[tuple[Expr, bool]] = [(e, False)]
    operands: list[str] = []
    while todo:
        node, ready = todo.pop()
        if not ready:
            todo.append((node, True))
            todo.extend((c, False) for c in reversed(node.children))
            continue
        first = len(operands) - len(node.children)
        args = operands[first:]
        del operands[first:]
        operands.append(operand(node, args))

    head = ["    def f(x, v):"]
    if e.has_v:
        head.append("        v = _float(v)")
        values["_float"] = float
    src = "\n".join([f"def make({', '.join(values)}):", *head, *lines,
                     f"        return {operands[0]}", "    return f"])
    namespace: dict = {}
    exec(compile(src, "<robustkkt expression>", "exec"), {}, namespace)
    return namespace["make"](**values)


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


# ---------------------------------------------------------------------------
# Classical gradient at smooth points
# ---------------------------------------------------------------------------

def smooth_gradient(e: Expr, x, v: float | None = None,
                    kink_tol: float = 1e-9) -> np.ndarray:
    """Gradient with respect to x; errors when any nonsmooth atom is active."""
    _check_scenario(e, v)
    _, g = _grad(e, _floats(x), v, kink_tol, x_only=False)
    return g


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
        return 1.0 / cv, -cg / (cv * cv)
    if k == "sqrt":
        cv, cg = _grad(e.children[0], xl, v, tol, x_only)
        if cv <= 0.0:
            raise DomainError(f"sqrt argument not positive in sqrt({e.children[0]})")
        r = cv ** 0.5
        return r, cg / (2.0 * r)
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
# Active-kink listing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KinkDescriptor:
    kind: str                 # "abs" | "max"
    text: str                 # printed atom
    tied: tuple[int, ...] = ()  # tied branch indices for max nodes

    def __str__(self) -> str:
        return self.text


def active_kinks(e: Expr, x, v: float | None = None,
                 tol: float = 1e-9) -> list[KinkDescriptor]:
    """List every abs node near its kink and every max node with a tie."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    _check_scenario(e, v)
    out: list[KinkDescriptor] = []
    _collect_kinks(e, _floats(x), v, tol, out)
    return out


def _collect_kinks(e: Expr, xl, v, tol, out: list[KinkDescriptor]) -> None:
    if e.kind == "abs":
        if abs(e.children[0].scalar_fn(xl, v)) <= tol:
            out.append(KinkDescriptor("abs", format_expr(e)))
    elif e.kind == "max":
        vals = [c.scalar_fn(xl, v) for c in e.children]
        top = max(vals)
        tied = tuple(i for i, cv in enumerate(vals) if top - cv <= tol)
        if len(tied) > 1:
            out.append(KinkDescriptor("max", format_expr(e), tied))
    for c in e.children:
        _collect_kinks(c, xl, v, tol, out)
