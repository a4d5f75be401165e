"""The scalar scenario maximiser as it stood before the point envelope
became one path: ``phi_i`` scanned a constraint on its own, through
``maximize_scenario`` and ``_refine_max``.  Kept verbatim as the oracle of
``tests/test_scenario_oracle.py``, which asserts that
``compute_active_sets`` gives bit-equal envelopes.
"""

from __future__ import annotations

import numpy as np

from robustkkt.funcdsl import eval_expr, scenario_fn
from robustkkt.robustfeas import DEFAULT_VGRID, ProblemSpec, _scan, golden_max


def maximize_scenario(fn, lo: float, hi: float, n: int = DEFAULT_VGRID,
                      refine_tol: float = 1e-10) -> tuple[float, float]:
    """Grid scan plus golden-section refinement; returns (max, argmax)."""
    if hi <= lo:
        return fn(lo), lo
    return _refine_max(fn, *_scan(fn, lo, hi, n), refine_tol)


def _refine_max(fn, grid: np.ndarray, vals: np.ndarray,
                refine_tol: float) -> tuple[float, float]:
    """Golden-section refinement around the best value of a grid scan."""
    n = grid.shape[0]
    k = int(np.argmax(vals))
    a = grid[max(k - 1, 0)]
    b = grid[min(k + 1, n - 1)]
    xm, fm = golden_max(fn, float(a), float(b), refine_tol)
    candidates = [(vals[k], float(grid[k])), (fm, xm),
                  (vals[0], float(grid[0])), (vals[-1], float(grid[-1]))]
    best = max(candidates, key=lambda t: t[0])
    return float(best[0]), float(best[1])


def phi_i(spec: ProblemSpec, i: int, x) -> float:
    """Worst-case envelope of constraint i (1-based) at x."""
    con = spec.constraints[i - 1]
    if not con.has_uncertainty:
        return eval_expr(con.expr, x)
    fn = scenario_fn(con.expr, x)
    if con.scenarios is not None:
        return max(fn(v) for v in con.scenarios)
    phi, _ = maximize_scenario(fn, con.lo, con.hi, spec.vgrid)
    return phi
