"""Layer benchmark of one point subdifferential, the set every subdiff, cq,
kkt and fuzzy command starts from: ``limiting_subdiff``, the batch of one
row of the vertex-array calculus, in both modes, at the kinks and at
generic points of the bundled problems:

- example 3.2 ``f2`` at the origin, an abs kink inside a quotient;
- example 3.5 ``f1`` at the origin, an abs kink under a coefficient 5;
- example 3.2 ``g1`` at (0.3, 0.2) with v = 0.5, smooth in x there;
- example 3.5 ``f1`` at (0.7, 0.3), smooth;
- example 3.2 ``g2`` at the origin with v = 1, a max whose winning branch
  v - 2 is all the walk visits: the losing branch, with its abs, is only
  evaluated.

It asserts nothing about speed, only that each set is bit-equal to the
``Polytope``/``minkowski_sum`` chain of ``walker_oracle``; a few fixed
rounds keep it short.  pytest-benchmark prints the timings side by side,
in the group ``point-subdiff``:

    PYTHONPATH=src python -m pytest tests/test_subdiff_bench.py
"""

from __future__ import annotations

import numpy as np
import pytest

import walker_oracle
from robustkkt.subdiff import limiting_subdiff
from test_walker import _set_key

CASES = {
    "3.2-f2-kink": ("spec32", "f2", [0.0, 0.0], None),
    "3.5-f1-kink": ("spec35", "f1", [0.0, 0.0], None),
    "3.2-g1-smooth": ("spec32", "g1", [0.3, 0.2], 0.5),
    "3.5-f1-smooth": ("spec35", "f1", [0.7, 0.3], None),
    "3.2-g2-select": ("spec32", "g2", [0.0, 0.0], 1.0),
}


@pytest.mark.benchmark(group="point-subdiff")
@pytest.mark.parametrize("mode", ["limiting", "hull"])
@pytest.mark.parametrize("case", CASES)
def test_point_subdiff(benchmark, request, case, mode):
    spec_name, name, x, v = CASES[case]
    spec = request.getfixturevalue(spec_name)
    e = (spec.objective(name) if name in spec.objective_names
         else spec.constraint(name).expr)
    x = np.array(x)
    res = benchmark.pedantic(
        lambda: limiting_subdiff(e, x, v, mode, spec.kink_tol), rounds=200,
        warmup_rounds=5)
    assert _set_key(res) == _set_key(
        walker_oracle.limiting_subdiff(e, x, v, mode, spec.kink_tol))
