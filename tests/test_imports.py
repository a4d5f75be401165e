"""The README command set imports no scipy module.

``from scipy.optimize import linprog`` alone costs about 0.8 s of start-up,
and no bundled command needs HiGHS, so scipy stays off those paths.  The
13 commands of ``tests/test_golden.py`` run in one fresh interpreter, which
then lists the scipy modules it holds.
"""

from __future__ import annotations

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import robustkkt

SRC = Path(robustkkt.__file__).resolve().parent.parent
TESTS = Path(__file__).resolve().parent


def test_readme_commands_import_no_scipy(tmp_path):
    script = textwrap.dedent(f"""
        import json, sys
        sys.path[:0] = [{str(SRC)!r}, {str(TESTS)!r}]
        from test_golden import COMMANDS, report
        codes = {{name: report(argv)[0] for name, argv in COMMANDS.items()}}
        scipy = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
        print(json.dumps({{"codes": codes, "scipy": scipy}}))
    """)
    run = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    out = json.loads(run.stdout.strip().splitlines()[-1])
    golden = json.loads((TESTS / "golden" / "exit_codes.json").read_text())
    assert out["codes"] == golden
    assert out["scipy"] == []
