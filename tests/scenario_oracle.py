"""The scalar scenario maximiser as it stood before the point envelope
became one path: ``phi_i`` scanned a constraint on its own, through
``maximize_scenario`` and ``_refine_max``, calling the scalar code once per
scenario (``scan_each``).  Kept verbatim, apart from the refinement
tolerance that is now ``golden_max``'s constant, as the oracle of
``tests/test_scenario_oracle.py``, which asserts that
``compute_active_sets`` gives bit-equal envelopes and that the array scan
``robustfeas._scan`` gives bit-equal values or the same exception.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from robustkkt.funcdsl import eval_expr
from robustkkt.robustfeas import DEFAULT_VGRID, ProblemSpec, golden_max


def scan_each(fn, grid: np.ndarray) -> np.ndarray:
    """fn at every scenario of grid, one scalar call each."""
    return np.array([fn(t) for t in grid.tolist()])


def maximize_scenario(fn, lo: float, hi: float,
                      n: int = DEFAULT_VGRID) -> tuple[float, float]:
    """Grid scan plus golden-section refinement; returns (max, argmax)."""
    if hi <= lo:
        return fn(lo), lo
    grid = np.linspace(lo, hi, n)
    return _refine_max(fn, grid, scan_each(fn, grid))


def _refine_max(fn, grid: np.ndarray,
                vals: np.ndarray) -> tuple[float, float]:
    """Golden-section refinement around the best value of a grid scan."""
    n = grid.shape[0]
    k = int(np.argmax(vals))
    a = grid[max(k - 1, 0)]
    b = grid[min(k + 1, n - 1)]
    xm, fm = golden_max(fn, float(a), float(b))
    candidates = [(vals[k], float(grid[k])), (fm, xm),
                  (vals[0], float(grid[0])), (vals[-1], float(grid[-1]))]
    best = max(candidates, key=lambda t: t[0])
    return float(best[0]), float(best[1])


def phi_i(spec: ProblemSpec, i: int, x) -> float:
    """Worst-case envelope of constraint i (1-based) at x."""
    con = spec.constraints[i - 1]
    if not con.expr.has_v:
        return eval_expr(con.expr, x)
    fn = partial(con.expr.scalar_fn,
                 np.asarray(x, dtype=float).reshape(-1).tolist())
    if con.scenarios is not None:
        return max(fn(v) for v in con.scenarios)
    phi, _ = maximize_scenario(fn, con.lo, con.hi, spec.vgrid)
    return phi
