"""Helpers of the test suites that the program itself does not use: a
listing of the active kinks of an expression, a comparison of two
polytopes' vertex arrays, a dual ball as one polytope, the gradient at a
smooth point, a stub that stands in for a command's work, and a counter
of a function's calls."""

from __future__ import annotations

import functools
import sys
from collections import Counter
from dataclasses import dataclass

import numpy as np

from robustkkt.funcdsl import Expr, _check_scenario, _floats, format_expr
from robustkkt.setcalc import VERTEX_TOL, Polytope, dual_ball, \
    minkowski_sum
from robustkkt.subdiff import limiting_subdiff


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


def polytope_equal(a: Polytope, b: Polytope, tol: float = VERTEX_TOL) -> bool:
    if a.nverts != b.nverts or a.dim != b.dim:
        return False
    return bool(np.max(np.abs(a.vertices - b.vertices)) <= tol)


def ball_polytope(norm: str, d: int, m: int = 64) -> Polytope:
    """dual_ball(norm, d, m) as one polytope, the sum of its summands: the
    summand itself where there is one, the box's 2^d corners in l1."""
    return functools.reduce(minkowski_sum, dual_ball(norm, d, m)).components[0]


def gradient(e: Expr, x) -> np.ndarray:
    """The gradient of e at a point where no kink is active: the one
    vertex of its limiting subdifferential, as the commands walk it."""
    (g,) = limiting_subdiff(e, x).set.all_vertices()
    return g


class Reached(BaseException):
    """Raised by a stub in place of the command's allocating call; not an
    Exception, so run_command's internal-fault exit 4 lets it through."""


def _reach(*args, **kwargs):
    raise Reached


def count_calls(monkeypatch, counts: Counter, key: str, fn) -> None:
    """Count each call of fn in counts[key]: fn is wrapped wherever a
    robustkkt module binds it, so calls through a name imported into
    another module count too (and a call counts once, as the wrapper
    calls fn itself)."""
    def counted(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "robustkkt" or name.startswith("robustkkt."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counted)
