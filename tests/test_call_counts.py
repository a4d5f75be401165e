"""How often each README command calls the program's costly steps: exact
LP solves (``lp.simplex_standard``), dual-feasibility checks
(``verify.dual_feasible``, one LP each) and feasibility masks of sample
sets (``robustfeas.feasibility_mask``).  Each answer is computed once, so
the table pins the counts; a change in a number must be deliberate, made
here with the reason in CHANGES.md.
"""

from __future__ import annotations

import sys
from collections import Counter

import pytest

from helpers import count_calls
from robustkkt import lp, robustfeas, verify
from test_golden import COMMANDS, report

# per command: (exact LPs, dual_feasible calls, feasibility_mask calls)
COUNTS = {
    "feasible": (0, 0, 0),
    "raster": (0, 0, 1),
    "subdiff": (0, 0, 0),
    "cq": (1, 0, 0),
    "kkt_search": (1, 0, 0),
    "kkt_check": (0, 0, 0),
    "fuzzy": (1, 0, 0),
    "pseudoconvex_I": (0, 0, 0),
    "pseudoconvex_II": (0, 0, 0),
    "efficiency": (0, 0, 1),
    "duality_strong": (2, 1, 0),
    "duality_weak": (2, 1, 1),
    "duality_converse": (1, 1, 1),
}
STEPS = (("lp", lp.simplex_standard), ("dual", verify.dual_feasible),
         ("mask", robustfeas.feasibility_mask))


def test_every_readme_command_pinned():
    assert sorted(COUNTS) == sorted(COMMANDS)


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_calls_per_command(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # raster writes its CSV here
    # no cached result stands in for a call
    for module in list(sys.modules.values()):
        if module.__name__.startswith("robustkkt."):
            for obj in vars(module).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()
    counts = Counter()
    for key, fn in STEPS:
        count_calls(monkeypatch, counts, key, fn)
    report(COMMANDS[name])
    assert tuple(counts[key] for key, _ in STEPS) == COUNTS[name]
