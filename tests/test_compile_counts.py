"""How many sources each README command that walks a tree compiles in a
fresh process: the misses of ``funcdsl._maker``, one per distinct source
text.  Every tree compiles its code on first use, so a single command pays
for each of these once; the table pins them, and a change in a number
must be deliberate, made here with the reason in CHANGES.md.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from test_golden import COMMANDS

SRC = Path(__file__).resolve().parent.parent / "src"

ARGV = {name: COMMANDS[name] for name in (
    "subdiff", "cq", "kkt_search", "kkt_check", "fuzzy", "pseudoconvex_I",
    "pseudoconvex_II", "duality_strong")}
# the sweep that verdictbench's pseudoconvex-sweep workload runs
ARGV["pseudoconvex_II_region"] = [
    "pseudoconvex", "--problem", "example_2_3", "--at", "0,0", "--type",
    "II", "--region", "-2,2,-2,2"]

MISSES = {
    "subdiff": 1,
    "cq": 7,
    "kkt_search": 8,
    "kkt_check": 6,
    "fuzzy": 26,
    "pseudoconvex_I": 14,
    "pseudoconvex_II": 10,
    "duality_strong": 8,
    "pseudoconvex_II_region": 17,
}

SCRIPT = """\
import contextlib, io, json, sys
from robustkkt import funcdsl
from robustkkt.cli import run_command
with contextlib.redirect_stdout(io.StringIO()):
    run_command(json.loads(sys.argv[1]))
print(funcdsl._maker.cache_info().misses)
"""


def _misses(argv: list[str]) -> int:
    out = subprocess.run([sys.executable, "-c", SCRIPT, json.dumps(argv)],
                         env={**os.environ, "PYTHONPATH": str(SRC)},
                         capture_output=True, text=True, check=True)
    return int(out.stdout)


def test_sources_compiled_per_fresh_process():
    with ThreadPoolExecutor(max_workers=3) as pool:
        got = dict(zip(ARGV, pool.map(_misses, ARGV.values())))
    assert got == MISSES
