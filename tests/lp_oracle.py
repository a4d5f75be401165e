"""The exact simplex as it stood before it became fraction-free: Bland's
rule over ``Fraction`` entries, with a full-tableau row update per pivot.
Kept as the oracle of ``tests/test_lp.py``, which asserts that
``robustkkt.lp.simplex_standard`` returns the same result after the same
pivots; the pivot is a module function, with the same arithmetic as the
closure it was, so that the test can record its calls.
"""

from __future__ import annotations

from fractions import Fraction

from robustkkt.lp import _MAX_PIVOTS, LPError


def _pivot(rows, rhs, basis, r, col, m):
    piv = rows[r][col]
    rows[r] = [a / piv for a in rows[r]]
    rhs[r] = rhs[r] / piv
    for i in range(m):
        if i != r and rows[i][col] != 0:
            f = rows[i][col]
            rows[i] = [a - f * p for a, p in zip(rows[i], rows[r])]
            rhs[i] = rhs[i] - f * rhs[r]
    basis[r] = col


def simplex_standard(A, b, c):
    """Exact two-phase simplex for min c.x s.t. A x = b, x >= 0.

    A, b, c contain Fractions.  Returns (status, x, objective) with status
    one of "optimal", "infeasible", "unbounded".
    """
    m = len(A)
    n = len(c)
    rows = []
    rhs = []
    for i in range(m):
        row = list(A[i])
        bi = b[i]
        if bi < 0:
            row = [-a for a in row]
            bi = -bi
        rows.append(row + [Fraction(0)] * m)
        rows[-1][n + i] = Fraction(1)
        rhs.append(bi)
    basis = [n + i for i in range(m)]

    def solve_phase(cost, allow_cols):
        pivots = 0
        while True:
            pivots += 1
            if pivots > _MAX_PIVOTS:
                raise LPError("simplex pivot limit exceeded")
            # reduced costs r_j = c_j - y.A_j with y from the basis
            cb = [cost[j] for j in basis]
            entering = -1
            for j in allow_cols:
                if j in basis:
                    continue
                rj = cost[j]
                for i in range(m):
                    if rows[i][j] != 0:
                        rj -= cb[i] * rows[i][j]
                if rj < 0:
                    entering = j
                    break  # Bland: first (smallest-index) improving column
            if entering < 0:
                return "optimal"
            leaving = -1
            best = None
            for i in range(m):
                aij = rows[i][entering]
                if aij > 0:
                    ratio = rhs[i] / aij
                    if best is None or ratio < best or (
                            ratio == best and basis[i] < basis[leaving]):
                        best = ratio
                        leaving = i
            if leaving < 0:
                return "unbounded"
            _pivot(rows, rhs, basis, leaving, entering, m)

    total = n + m
    phase1_cost = [Fraction(0)] * n + [Fraction(1)] * m
    status = solve_phase(phase1_cost, range(total))
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
                    _pivot(rows, rhs, basis, i, j, m)
                    break

    phase2_cost = list(c) + [Fraction(0)] * m
    status = solve_phase(phase2_cost, range(n))
    if status == "unbounded":
        return "unbounded", None, None
    x = [Fraction(0)] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = rhs[i]
    obj = sum(ci * xi for ci, xi in zip(c, x))
    return "optimal", x, obj
