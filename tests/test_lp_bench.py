"""Layer benchmark of the exact certificate LPs, the step every fuzzy, kkt
and duality verdict ends in: the zero-in-sum LPs of the README ``fuzzy``
command (6 rows, 70 columns, 64 of them the l2 ball's vertices; 6 pivots)
and ``kkt search`` command (5 rows, 74 columns; 25 pivots), by the revised
fraction-free simplex (``robustkkt.lp.simplex_standard``) and by the
``Fraction`` full-tableau simplex of ``tests/lp_oracle.py``.

It asserts nothing about speed, only that both give the same result; a
few fixed rounds keep it short.  pytest-benchmark prints the timings side
by side, in the group ``exact-simplex``:

    PYTHONPATH=src python -m pytest tests/test_lp_bench.py
"""

from __future__ import annotations

from fractions import Fraction

import lp_oracle
import pytest
from test_golden import COMMANDS, report
from test_lp import captured_lps

from robustkkt import lp


@pytest.fixture(scope="module")
def readme_lps():
    """The one exact LP of the README ``fuzzy`` and ``kkt search``
    commands, by command."""
    lps = {}
    for name in ("fuzzy", "kkt_search"):
        (lps[name],) = captured_lps(lambda: report(COMMANDS[name]))
    return lps


def solve_both(benchmark, engine, A, b, c):
    exact = ([[Fraction(a) for a in row] for row in A],
             [Fraction(a) for a in b], [Fraction(a) for a in c])
    run = {"revised": lambda: lp.simplex_standard(A, b, c),
           "oracle": lambda: lp_oracle.simplex_standard(*exact)}[engine]
    result = benchmark.pedantic(run, rounds=10, warmup_rounds=1)
    assert result == lp_oracle.simplex_standard(*exact)
    assert result[0] == "optimal"


@pytest.mark.benchmark(group="exact-simplex")
@pytest.mark.parametrize("engine", ["revised", "oracle"])
def test_fuzzy_lp(benchmark, readme_lps, engine):
    solve_both(benchmark, engine, *readme_lps["fuzzy"])


@pytest.mark.benchmark(group="exact-simplex")
@pytest.mark.parametrize("engine", ["revised", "oracle"])
def test_kkt_search_lp(benchmark, readme_lps, engine):
    solve_both(benchmark, engine, *readme_lps["kkt_search"])
