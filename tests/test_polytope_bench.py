"""Layer benchmark of polytope construction, in the group
``polytope-build``: ``setcalc._dedup_rows`` on the l2 ball's 64-gon by
the array pass and by the row loop of ``tests/test_dedup_rows.py``; the
ball itself, built without its memo; and a warm
``load_problem("example_3_2")``, whose fixture sets come from their memo.

It asserts nothing about speed, only that each result is the one the
program uses; a few fixed rounds keep it short:

    PYTHONPATH=src python -m pytest tests/test_polytope_bench.py
"""

from __future__ import annotations

import pytest
from test_dedup_rows import oracle_dedup_rows

from robustkkt import setcalc
from robustkkt.cli import load_problem
from robustkkt.setcalc import dual_ball


@pytest.mark.benchmark(group="polytope-build")
@pytest.mark.parametrize("engine", ["array", "oracle"])
def test_dedup_ball_rows(benchmark, engine):
    rows = setcalc._regular_polygon(64)
    run = {"array": setcalc._dedup_rows, "oracle": oracle_dedup_rows}[engine]
    result = benchmark.pedantic(run, (rows,), rounds=200, warmup_rounds=5)
    assert result.tobytes() == rows.tobytes()


@pytest.mark.benchmark(group="polytope-build")
def test_dual_ball_uncached(benchmark):
    ball = benchmark.pedantic(dual_ball.__wrapped__, ("l2", 2, 64),
                              rounds=100, warmup_rounds=5)
    assert ball.vertices.tobytes() == dual_ball("l2", 2, 64).vertices.tobytes()


@pytest.mark.benchmark(group="polytope-build")
def test_load_problem_warm(benchmark):
    spec = benchmark.pedantic(load_problem, ("example_3_2",), rounds=100,
                              warmup_rounds=5)
    again = load_problem("example_3_2")
    assert spec.fixtures[0].pset is again.fixtures[0].pset
