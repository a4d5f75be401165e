"""Linear programming layer.

All the set questions in this package (is zero in a sum of polytopes, is a
point inside a hull, does a witness direction exist) reduce to small LPs.
Two engines are provided:

* an exact Bland-rule simplex in fraction-free integer arithmetic, so
  feasibility verdicts on the small equality-form certificate LPs carry no
  floating point doubt (binary floats convert to integer ratios
  losslessly), and
* scipy's HiGHS for the larger inequality systems, with feasibility
  tolerance 1e-9.

The exact simplex scales ``[A | b]`` once by the lcm L of its entries'
denominators and keeps the tableau as integers over one positive common
denominator D (Edmonds' integer-preserving elimination; Bareiss, Math.
Comp. 22, 1968).  A pivot on the entry p keeps the pivot row, replaces each
other entry a by ``(p·a − f·q) // D``, with f the entry of a's row in the
pivot column and q that of the pivot row in a's column, which divides
exactly, and makes p the new D; a negative p (only when a leftover
artificial is driven out) negates the tableau, so D stays positive.  The
artificial columns stay the identity, which rescales the artificial
variables and the phase-1 cost by L > 0, so every reduced-cost sign and
every ratio-test order, and with them the pivots, are those of the same
simplex over ``Fraction`` entries.  (Scaling each row by its own factor
would weight the phase-1 cost row by row and change its pricing.)

``LPBuilder.solve`` takes the exact engine for systems of at most 160
columns and 80 rows, HiGHS above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

_MAX_PIVOTS = 20000
_EXACT_COL_LIMIT = 160
_EXACT_ROW_LIMIT = 80
FLOAT_FEAS_TOL = 1e-9


class LPError(Exception):
    pass


def _rational(x):
    """x as an exact number the simplex accepts: a Fraction stays one,
    anything else converts to float (infinity raises OverflowError, NaN
    ValueError, when the simplex takes its integer ratio)."""
    return x if isinstance(x, Fraction) else float(x)


def _integer_rows(rows) -> tuple[list[list[int]], int]:
    """The rows times L, the lcm of their entries' denominators, as ints;
    and L.  Entries are ints, Fractions or floats."""
    ratios = [[a.as_integer_ratio() for a in row] for row in rows]
    scale = math.lcm(*(den for row in ratios for _, den in row))
    return [[num * (scale // den) for num, den in row]
            for row in ratios], scale


def _pivot(rows, rhs, basis, r, col, d) -> int:
    """Fraction-free pivot on rows[r][col] of the tableau ``rows``/``rhs``
    over the common denominator d; returns the new denominator, made
    positive by negating the tableau when the pivot is negative."""
    prow, prhs = rows[r], rhs[r]
    p = prow[col]
    for i, row in enumerate(rows):
        if i == r:
            continue
        f = row[col]
        if f:
            rows[i] = [(p * a - f * q) // d for a, q in zip(row, prow)]
            rhs[i] = (p * rhs[i] - f * prhs) // d
        elif p != d:
            rows[i] = [p * a // d for a in row]
            rhs[i] = p * rhs[i] // d
    basis[r] = col
    if p < 0:
        for i, row in enumerate(rows):
            rows[i] = [-a for a in row]
            rhs[i] = -rhs[i]
        return -p
    return p


def simplex_standard(A, b, c):
    """Exact two-phase simplex for min c.x s.t. A x = b, x >= 0.

    A, b, c contain ints, Fractions or floats.  Bland's rule picks the
    first column with a negative reduced cost and, among the rows of the
    least ratio, the one whose basic column has the least index.  Returns
    (status, x, objective) with x and the objective as Fractions and
    status one of "optimal", "infeasible", "unbounded".
    """
    m = len(A)
    n = len(c)
    rows, _ = _integer_rows([[*A[i], b[i]] for i in range(m)])
    (cost,), cost_scale = _integer_rows([c])
    rhs = []
    for i, row in enumerate(rows):
        bi = row.pop()
        if bi < 0:
            row = [-a for a in row]
            bi = -bi
        rows[i] = row + [0] * m
        rows[i][n + i] = 1
        rhs.append(bi)
    basis = [n + i for i in range(m)]
    d = 1

    def solve_phase(cost, allow_cols):
        # The reduced cost of column j, times d > 0, is
        # d·cost_j − Σ_i cost_basis[i]·rows[i][j].
        nonlocal d
        pivots = 0
        while True:
            pivots += 1
            if pivots > _MAX_PIVOTS:
                raise LPError("simplex pivot limit exceeded")
            basic = set(basis)
            priced = [(cost[j], rows[i]) for i, j in enumerate(basis)
                      if cost[j]]
            entering = -1
            for j in allow_cols:
                if j in basic:
                    continue
                rj = d * cost[j]
                for cb, row in priced:
                    rj -= cb * row[j]
                if rj < 0:
                    entering = j
                    break  # Bland: first (smallest-index) improving column
            if entering < 0:
                return "optimal"
            leaving = -1
            for i in range(m):
                aij = rows[i][entering]
                if aij <= 0:
                    continue
                if leaving < 0:
                    leaving = i
                    continue
                # rhs[i]/aij against the least ratio so far, cross-multiplied
                ratio = rhs[i] * rows[leaving][entering]
                least = rhs[leaving] * aij
                if ratio < least or (ratio == least
                                     and basis[i] < basis[leaving]):
                    leaving = i
            if leaving < 0:
                return "unbounded"
            d = _pivot(rows, rhs, basis, leaving, entering, d)

    total = n + m
    status = solve_phase([0] * n + [1] * m, range(total))
    if status != "optimal":  # phase 1 cannot be unbounded, defensive
        return "infeasible", None, None
    art_value = sum(rhs[i] for i in range(m) if basis[i] >= n)
    if art_value > 0:
        return "infeasible", None, None
    # Drive leftover zero-valued artificials out of the basis when possible.
    for i in range(m):
        if basis[i] >= n:
            for j in range(n):
                if rows[i][j] != 0:
                    d = _pivot(rows, rhs, basis, i, j, d)
                    break

    status = solve_phase(cost + [0] * m, range(n))
    if status == "unbounded":
        return "unbounded", None, None
    x = [Fraction(0)] * n
    obj = 0
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = Fraction(rhs[i], d)
            obj += cost[basis[i]] * rhs[i]
    return "optimal", x, Fraction(obj, cost_scale * d)


@dataclass
class LPResult:
    status: str                       # optimal | infeasible | unbounded
    values: np.ndarray | None = None  # per declared variable
    objective: float | None = None
    engine: str = "exact"

    @property
    def feasible(self) -> bool:
        return self.status == "optimal"


@dataclass
class LPBuilder:
    """Incremental LP in user variables; handles free-variable splitting.

    Variables are nonnegative unless declared free.  Constraints are either
    equalities or ``<=`` inequalities over the declared variables.
    """
    n: int = 0
    free: list[bool] = field(default_factory=list)
    eqs: list[tuple[dict, float]] = field(default_factory=list)
    ubs: list[tuple[dict, float]] = field(default_factory=list)
    obj: dict = field(default_factory=dict)

    def add_var(self, free: bool = False) -> int:
        self.free.append(free)
        self.n += 1
        return self.n - 1

    def add_vars(self, count: int, free: bool = False) -> list[int]:
        return [self.add_var(free) for _ in range(count)]

    def add_eq(self, coeffs: dict, rhs) -> None:
        self.eqs.append((dict(coeffs), rhs))

    def add_ub(self, coeffs: dict, rhs) -> None:
        self.ubs.append((dict(coeffs), rhs))

    def set_objective(self, coeffs: dict) -> None:
        self.obj = dict(coeffs)

    # -- solving ----------------------------------------------------------

    def solve(self) -> LPResult:
        ncols = self.n + sum(self.free) + len(self.ubs)
        nrows = len(self.eqs) + len(self.ubs)
        if ncols <= _EXACT_COL_LIMIT and nrows <= _EXACT_ROW_LIMIT:
            return self._solve_exact()
        return self._solve_float()

    def _split_map(self):
        # variable i -> (pos column, neg column or None)
        cols = []
        nxt = 0
        for i in range(self.n):
            if self.free[i]:
                cols.append((nxt, nxt + 1))
                nxt += 2
            else:
                cols.append((nxt, None))
                nxt += 1
        return cols, nxt

    def _solve_exact(self) -> LPResult:
        cols, base = self._split_map()
        nslack = len(self.ubs)
        total = base + nslack
        A, b = [], []

        def expand(coeffs):
            row = [0] * total
            for i, a in coeffs.items():
                fa = _rational(a)
                p, q = cols[i]
                row[p] += fa
                if q is not None:
                    row[q] -= fa
            return row

        for coeffs, rhs in self.eqs:
            A.append(expand(coeffs))
            b.append(_rational(rhs))
        for s, (coeffs, rhs) in enumerate(self.ubs):
            row = expand(coeffs)
            row[base + s] = 1
            A.append(row)
            b.append(_rational(rhs))
        c = [0] * total
        for i, a in self.obj.items():
            fa = _rational(a)
            p, q = cols[i]
            c[p] += fa
            if q is not None:
                c[q] -= fa
        status, x, obj = simplex_standard(A, b, c)
        if status != "optimal":
            return LPResult(status, engine="exact")
        vals = np.zeros(self.n)
        for i in range(self.n):
            p, q = cols[i]
            vals[i] = float(x[p] if q is None else x[p] - x[q])
        return LPResult("optimal", vals, float(obj), engine="exact")

    def _solve_float(self) -> LPResult:
        from scipy.optimize import linprog

        c = np.zeros(self.n)
        for i, a in self.obj.items():
            c[i] = float(a)
        A_eq = b_eq = A_ub = b_ub = None
        if self.eqs:
            A_eq = np.zeros((len(self.eqs), self.n))
            b_eq = np.zeros(len(self.eqs))
            for r, (coeffs, rhs) in enumerate(self.eqs):
                for i, a in coeffs.items():
                    A_eq[r, i] = float(a)
                b_eq[r] = float(rhs)
        if self.ubs:
            A_ub = np.zeros((len(self.ubs), self.n))
            b_ub = np.zeros(len(self.ubs))
            for r, (coeffs, rhs) in enumerate(self.ubs):
                for i, a in coeffs.items():
                    A_ub[r, i] = float(a)
                b_ub[r] = float(rhs)
        bounds = [(None, None) if f else (0, None) for f in self.free]
        res = linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                      bounds=bounds, method="highs",
                      options={"primal_feasibility_tolerance": FLOAT_FEAS_TOL})
        if res.status == 2:
            return LPResult("infeasible", engine="float")
        if res.status == 3:
            return LPResult("unbounded", engine="float")
        if not res.success:
            raise LPError(f"HiGHS failed: {res.message}")
        return LPResult("optimal", np.asarray(res.x), float(res.fun),
                        engine="float")
