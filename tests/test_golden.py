"""Byte-for-byte guard on the reports of the README command set.

Each command of the README runs on the bundled fixtures, without
``--timings``, and its JSON report must equal ``tests/golden/<name>.json``
byte for byte, with ``problem.path`` reduced to the file name; the exit
codes are in ``tests/golden/exit_codes.json``. The raster command writes
its CSV to a file, whose sha256 is kept in
``tests/golden/raster.csv.sha256``. An optimisation that changes one float
in one report fails here.

The goldens are rewritten by ``PYTHONPATH=src python tests/test_golden.py``;
do that only for a change meant to alter reports, and say so.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import tempfile
from pathlib import Path

import pytest

from robustkkt.cli import resolve_problem_path, run_command

GOLDEN = Path(__file__).parent / "golden"
FIXTURES = resolve_problem_path("example_3_2").parent
RASTER_CSV = "f.csv"

COMMANDS = {
    "feasible": ["feasible", "--problem", "example_3_2", "--at", "-1,3"],
    "raster": ["raster", "--problem", "example_3_2", "--region", "-5,1,-5,5",
               "--res", "401", "--out", RASTER_CSV],
    "subdiff": ["subdiff", "--problem", "example_3_2", "--target", "f2",
                "--at", "0,0", "--mode", "limiting"],
    "cq": ["cq", "--problem", "example_3_2", "--at", "0,0"],
    "kkt_search": ["kkt", "search", "--problem", "example_3_5", "--at", "0,0"],
    "kkt_check": ["kkt", "check", "--problem", "example_3_2", "--at", "0,0",
                  "--cert", str(FIXTURES / "example_3_2.cert.json"),
                  "--fixtures"],
    "fuzzy": ["fuzzy", "--problem", "example_3_2", "--at", "0,0",
              "--ystar", "0.3535,0,0.3535", "--eta", "0.1"],
    "pseudoconvex_I": ["pseudoconvex", "--problem", "example_2_2", "--at",
                       "0,0", "--type", "I", "--region", "-2,2,-2,2"],
    "pseudoconvex_II": ["pseudoconvex", "--problem", "example_2_2", "--at",
                        "0,0", "--type", "II", "--witness",
                        str(FIXTURES / "example_2_2_witness.json")],
    "efficiency": ["efficiency", "--problem", "example_3_2", "--at", "0,0",
                   "--kind", "weak-quasi", "--region", "-5,1,-5,5",
                   "--res", "401"],
    "duality_strong": ["duality", "strong", "--problem", "example_3_5",
                       "--at", "0,0"],
    "duality_weak": ["duality", "weak", "--problem", "example_3_5", "--at",
                     "0,0", "--kind", "I", "--region", "-3,3,-4,1",
                     "--samples", "1000"],
    "duality_converse": ["duality", "converse", "--problem", "example_3_5",
                         "--triple", str(GOLDEN / "triple_3_5.json"),
                         "--kind", "I", "--region", "-3,3,-4,1"],
}


def report(argv) -> tuple[int, str]:
    """Exit code and report text, with problem.path cut to its file name."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run_command(argv)
    out = buf.getvalue()
    path = resolve_problem_path(argv[argv.index("--problem") + 1])
    return code, out.replace(json.dumps(str(path)), json.dumps(path.name))


def csv_digest() -> str:
    return hashlib.sha256(Path(RASTER_CSV).read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_report_matches_golden(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, text = report(COMMANDS[name])
    codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    assert code == codes[name]
    assert text == (GOLDEN / f"{name}.json").read_text()
    if name == "raster":
        assert csv_digest() == (GOLDEN / "raster.csv.sha256").read_text().strip()


def regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        codes = {}
        for name, argv in sorted(COMMANDS.items()):
            codes[name], text = report(argv)
            (GOLDEN / f"{name}.json").write_text(text)
            if name == "raster":
                (GOLDEN / "raster.csv.sha256").write_text(csv_digest() + "\n")
    (GOLDEN / "exit_codes.json").write_text(
        json.dumps(codes, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    regenerate()
