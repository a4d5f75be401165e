"""Linear programming layer.

All the set questions in this package (is zero in a sum of polytopes, is a
point inside a hull, does a witness direction exist) reduce to small LPs.
Two engines are provided:

* an exact Bland-rule simplex in fraction-free integer arithmetic, so
  feasibility verdicts on the small equality-form certificate LPs carry no
  floating point doubt (binary floats convert to integer ratios
  losslessly), and
* scipy's HiGHS for the larger systems, with feasibility tolerance 1e-9.

Both solve one standard form, min c.x subject to A x = b, x >= 0, which
``LPBuilder`` builds once: a free variable is the difference of two
columns, and each ``<=`` row gets a slack column.

The exact simplex scales ``[A | b]`` once by the lcm L of its entries'
denominators, which gives the integer start ``T0 = [A' | b' | I]``.  Every
later tableau is ``M·T0`` over one positive common denominator D, with M
the integer m×m block in the artificial columns, so the engine is a
revised simplex (Azulay & Pique, ACM TOMS 27, 2001) that keeps only M,
the right-hand side, the basis and D.  Column j is ``M·A'_j``, and its
reduced cost times D is ``D·c_j − y·A'_j`` with ``y = Σ_i c_basis[i]·M_i``,
so Bland's rule prices the columns one by one and forms only the entering
column.  A pivot on its entry p updates M and the right-hand side
fraction-free (Edmonds' integer-preserving elimination; Bareiss, Math.
Comp. 22, 1968): it keeps the pivot row, replaces each other entry a by
``(p·a − f·q) // D``, with f the entering column's entry in a's row and q
that of the pivot row in a's column, which divides exactly, and makes p
the new D; a negative p (only when a leftover artificial is driven out)
negates M and the right-hand side, so D stays positive.  The artificial
columns start as the identity, which rescales the artificial variables
and the phase-1 cost by L > 0, so every reduced-cost sign and every
ratio-test order, and with them the pivots, are those of the same simplex
over ``Fraction`` entries.  (Scaling each row by its own factor would
weight the phase-1 cost row by row and change its pricing.)

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
_HIGHS_STATUS = {0: "optimal", 2: "infeasible", 3: "unbounded"}


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


def _pivot(inverse, rhs, basis, r, col, column, d) -> int:
    """Fraction-free pivot on entry r of ``column``, the tableau column of
    the entering variable col: updates the inverse block ``inverse`` and
    ``rhs`` over the common denominator d; returns the new denominator,
    made positive by negating both when the pivot is negative."""
    prow, prhs = inverse[r], rhs[r]
    p = column[r]
    for i, row in enumerate(inverse):
        if i == r:
            continue
        f = column[i]
        if f:
            inverse[i] = [(p * a - f * q) // d for a, q in zip(row, prow)]
            rhs[i] = (p * rhs[i] - f * prhs) // d
        elif p != d:
            inverse[i] = [p * a // d for a in row]
            rhs[i] = p * rhs[i] // d
    basis[r] = col
    if p < 0:
        for i, row in enumerate(inverse):
            inverse[i] = [-a for a in row]
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
        rows[i] = row
        rhs.append(bi)
    # The sparse columns of [A' | I]: (row, entry) pairs.
    columns = [[(i, row[j]) for i, row in enumerate(rows) if row[j]]
               for j in range(n)] + [[(i, 1)] for i in range(m)]
    inverse = [[int(i == k) for k in range(m)] for i in range(m)]
    basis = [n + i for i in range(m)]
    d = 1

    def tableau_column(j):
        return [sum(row[k] * a for k, a in columns[j]) for row in inverse]

    def solve_phase(cost, allow_cols):
        # The reduced cost of column j, times d > 0, is d·cost_j − y·A'_j
        # with y = Σ_i cost_basis[i]·inverse[i].
        nonlocal d
        pivots = 0
        while True:
            pivots += 1
            if pivots > _MAX_PIVOTS:
                raise LPError("simplex pivot limit exceeded")
            basic = set(basis)
            y = [0] * m
            for i, j in enumerate(basis):
                if cost[j]:
                    y = [s + cost[j] * a for s, a in zip(y, inverse[i])]
            entering = -1
            for j in allow_cols:
                if j in basic:
                    continue
                rj = d * cost[j]
                for k, a in columns[j]:
                    rj -= y[k] * a
                if rj < 0:
                    entering = j
                    break  # Bland: first (smallest-index) improving column
            if entering < 0:
                return "optimal"
            column = tableau_column(entering)
            leaving = -1
            for i in range(m):
                aij = column[i]
                if aij <= 0:
                    continue
                if leaving < 0:
                    leaving = i
                    continue
                # rhs[i]/aij against the least ratio so far, cross-multiplied
                ratio = rhs[i] * column[leaving]
                least = rhs[leaving] * aij
                if ratio < least or (ratio == least
                                     and basis[i] < basis[leaving]):
                    leaving = i
            if leaving < 0:
                return "unbounded"
            d = _pivot(inverse, rhs, basis, leaving, entering, column, d)

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
                if sum(inverse[i][k] * a for k, a in columns[j]):
                    d = _pivot(inverse, rhs, basis, i, j, tableau_column(j),
                               d)
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

    def _standard_form(self):
        """(A, b, c, cols): min c.x subject to A x = b, x >= 0, the one form
        both engines solve.  Variable i is column cols[i][0], less column
        cols[i][1] where it is free (else None); each ``<=`` row adds a
        slack column after them all."""
        cols, base = [], 0
        for free in self.free:
            cols.append((base, base + 1 if free else None))
            base += 1 + free

        def expand(coeffs):
            row = [0] * (base + len(self.ubs))
            for i, a in coeffs.items():
                fa = _rational(a)
                p, q = cols[i]
                row[p] += fa
                if q is not None:
                    row[q] -= fa
            return row

        A = [expand(coeffs) for coeffs, _ in self.eqs + self.ubs]
        for s in range(len(self.ubs)):
            A[len(self.eqs) + s][base + s] = 1
        b = [_rational(rhs) for _, rhs in self.eqs + self.ubs]
        return A, b, expand(self.obj), cols

    def _solve_exact(self) -> LPResult:
        A, b, c, cols = self._standard_form()
        return _result(*simplex_standard(A, b, c), cols, "exact")

    def _solve_float(self) -> LPResult:
        from scipy.optimize import linprog

        A, b, c, cols = self._standard_form()
        res = linprog(np.array(c, dtype=float),
                      A_eq=np.array(A, dtype=float).reshape(len(A), len(c)),
                      b_eq=np.array(b, dtype=float), bounds=(0, None),
                      method="highs",
                      options={"primal_feasibility_tolerance": FLOAT_FEAS_TOL})
        if res.status not in _HIGHS_STATUS:
            raise LPError(f"HiGHS failed: {res.message}")
        return _result(_HIGHS_STATUS[res.status], res.x, res.fun, cols,
                       "float")


def _result(status: str, x, objective, cols, engine: str) -> LPResult:
    """An engine's answer over the standard form's columns x as the
    declared variables' values."""
    if status != "optimal":
        return LPResult(status, engine=engine)
    values = np.array([float(x[p] if q is None else x[p] - x[q])
                       for p, q in cols])
    return LPResult(status, values, float(objective), engine)
