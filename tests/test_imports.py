"""The README command set imports no scipy module, and importing the CLI
builds only the dataclasses whose features are read.

``from scipy.optimize import linprog`` alone costs about 0.8 s of start-up,
and no bundled command needs HiGHS, so scipy stays off those paths.  The
13 commands of ``tests/test_golden.py`` run in one fresh interpreter, which
then lists the scipy modules it holds.

Every one-shot command builds the classes of the package: a dataclass of
five fields takes about 0.35 ms, a NamedTuple about 0.1 ms (Python 3.11 on
a 2-vCPU Xeon).  So the records a command only reads and writes are
NamedTuples, and a new dataclass is a deliberate choice.
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


# Each kept for a feature that is read: Expr's hash keys the caches and
# cached_property needs its __dict__; ProblemSpec is copied by
# dataclasses.replace, its fields read by cli, and checked in
# __post_init__; UncertainConstraint's hash keys _scenario_sides and its
# __post_init__ refuses bad input, as ConeSpec's does.
DATACLASSES = {"funcdsl.Expr", "robustfeas.ProblemSpec",
               "robustfeas.UncertainConstraint", "setcalc.ConeSpec"}


def test_cli_import_builds_only_the_kept_dataclasses(tmp_path):
    script = textwrap.dedent(f"""
        import dataclasses, json, sys
        sys.path.insert(0, {str(SRC)!r})
        built, process = [], dataclasses._process_class

        def spy(cls, *args, **kwargs):
            built.append(f"{{cls.__module__}}.{{cls.__qualname__}}")
            return process(cls, *args, **kwargs)

        dataclasses._process_class = spy
        import robustkkt.cli
        print(json.dumps(built))
    """)
    run = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    built = [name for name in json.loads(run.stdout.strip().splitlines()[-1])
             if name.startswith("robustkkt.")]
    assert sorted(built) == sorted("robustkkt." + name
                                   for name in DATACLASSES)
