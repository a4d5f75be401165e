"""Layer benchmark of one scenario scan, the step every point verdict
starts from: constraint g1 of example 3.5 at one point over its 1,001
scenarios, by the array scan (``robustfeas._scan``) and by the
per-scenario loop it replaced (``scan_each`` in ``tests/scenario_oracle.py``).

It asserts nothing about speed, only that both give the same bits; a few
fixed rounds keep it short.  pytest-benchmark prints the two timings side
by side, in the group ``scenario-scan``:

    PYTHONPATH=src python -m pytest tests/test_scan_bench.py
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pytest

from robustkkt import robustfeas
from scenario_oracle import scan_each


@pytest.mark.benchmark(group="scenario-scan")
@pytest.mark.parametrize("path", ["array", "oracle"])
def test_one_scan(benchmark, spec35, path):
    con, x = spec35.constraints[0], [0.3, -0.2]
    fn, scan = partial(con.expr.scalar_fn, x), partial(con.expr.scan_fn, x)
    grid = np.linspace(con.lo, con.hi, spec35.vgrid)
    run = {"array": lambda: robustfeas._scan(fn, scan, grid),
           "oracle": lambda: scan_each(fn, grid)}[path]
    vals = benchmark.pedantic(run, rounds=20, warmup_rounds=2)
    assert vals.view(np.int64).tolist() == \
        scan_each(fn, grid).view(np.int64).tolist()
