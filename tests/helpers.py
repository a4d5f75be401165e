"""Helpers of the test suites that the program itself does not use: a
listing of the active kinks of an expression, a comparison of two
polytopes' vertex arrays, the gradient at a smooth point, and a stub
that stands in for a command's work."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from robustkkt.funcdsl import Expr, _check_scenario, _floats, format_expr
from robustkkt.setcalc import VERTEX_TOL, Polytope
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
