"""Layer benchmark of one exact certificate LP, the step every fuzzy, kkt
and duality verdict ends in: the zero-in-sum LP of the README ``fuzzy``
command (6 rows, 70 columns, 64 of them the l2 ball's vertices), by the
revised fraction-free simplex (``robustkkt.lp.simplex_standard``) and by
the ``Fraction`` full-tableau simplex of ``tests/lp_oracle.py``.

It asserts nothing about speed, only that both give the same result; a
few fixed rounds keep it short.  pytest-benchmark prints the two timings
side by side, in the group ``exact-simplex``:

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
def fuzzy_lp():
    (A, b, c), = captured_lps(lambda: report(COMMANDS["fuzzy"]))
    return A, b, c


@pytest.mark.benchmark(group="exact-simplex")
@pytest.mark.parametrize("engine", ["revised", "oracle"])
def test_fuzzy_lp(benchmark, fuzzy_lp, engine):
    A, b, c = fuzzy_lp
    exact = ([[Fraction(a) for a in row] for row in A],
             [Fraction(a) for a in b], [Fraction(a) for a in c])
    run = {"revised": lambda: lp.simplex_standard(A, b, c),
           "oracle": lambda: lp_oracle.simplex_standard(*exact)}[engine]
    result = benchmark.pedantic(run, rounds=10, warmup_rounds=1)
    assert result == lp_oracle.simplex_standard(*exact)
    assert result[0] == "optimal"
