"""The program imports no scipy module, and importing the CLI builds only
the dataclasses whose features are read.

Every LP is solved by the exact simplex of ``robustkkt.lp``; scipy is a
test dependency (the HiGHS reference of ``tests/lp_oracle.py``).  The 13
commands of ``tests/test_golden.py`` run in one fresh interpreter, which
then lists the scipy modules it holds; so do the commands whose LPs went
to HiGHS while LPs over 160 columns or 80 rows did: the l1 norm's 2^d-corner
box in dimension 16, a witness check off the plane over the linf norm's
box, a three-dimensional search with many constraint columns and a
4096-gon ball.  An AST scan finds no scipy import in ``src/robustkkt``.

Every one-shot command builds the classes of the package: a dataclass of
five fields takes about 0.35 ms, a NamedTuple about 0.1 ms (Python 3.11 on
a 2-vCPU Xeon).  So the records a command only reads and writes are
NamedTuples, and a new dataclass is a deliberate choice.
"""

from __future__ import annotations

import ast
import json
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np

import robustkkt
from robustkkt import certify, setcalc, verify
from robustkkt.cli import resolve_problem_path
from test_golden import report

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


def _problem_files(tmp_path) -> dict[str, Path]:
    """Example 3.5's data in 16 coordinates under the l1 and the linf norm
    (no fixtures), and with a 4096-gon ball; a problem in 3 coordinates
    whose 20 constraints, each active at the origin with an 8-vertex box
    as its set, give the search LP 190 columns; and a witness for the
    linf problem."""
    text = "\n".join(t for t in resolve_problem_path("example_3_5")
                     .read_text().splitlines() if not t.startswith("#"))
    files = {"ex35_4096": text.replace("ball_facets = 64",
                                       "ball_facets = 4096")}
    lifted = text.split("fixture")[0].replace("dim = 2", "dim = 16")
    for norm in ("l1", "linf"):
        files[f"{norm}_16"] = lifted.replace("norm = l2", f"norm = {norm}")
    files["boxes_3"] = (
        "[space]\ndim = 3\n[cone]\npattern = >=0, >=0\n[theta]\n"
        "value = 1/2, 1/4\n[omega]\nkind = whole\n[objectives]\n"
        'f1 = "abs(x1) + x3"\nf2 = "x2 - x3"\n[constraints]\n' + "".join(
            f'g{k} = "abs(x1) + abs(x2) + abs(x3) + ({k}/20)*x1 - ({k}/40)*x3"'
            "\n" for k in range(1, 21)) + "[options]\nnorm = l2\n")
    paths = {}
    for name, body in files.items():
        paths[name] = tmp_path / f"{name}.problem"
        paths[name].write_text(body)
    zeros = [0] * 14
    paths["witness_16"] = tmp_path / "witness_16.json"
    paths["witness_16"].write_text(json.dumps({
        "x": [0, -1, *zeros], "ystar": [-1, 0, 0],
        "u": [[0, "-2/5", *zeros], [0, 0, *zeros], [0, "1/2", *zeros]]}))
    return paths


ORIGIN_16 = ",".join(["0"] * 16)


def _former_float_commands(paths) -> dict[str, tuple[list, int, str]]:
    """argv, exit code and verdict of each command, as the code with the
    HiGHS path gave them."""
    return {
        "kkt_search_l1_16": (["kkt", "search", "--problem", paths["l1_16"],
                              "--at", ORIGIN_16], 0, "CERTIFICATE-FOUND"),
        "duality_strong_l1_16": (["duality", "strong", "--problem",
                                  paths["l1_16"], "--at", ORIGIN_16],
                                 0, "FEASIBLE"),
        "pseudoconvex_witness_linf_16": (
            ["pseudoconvex", "--problem", paths["linf_16"], "--at",
             ORIGIN_16, "--type", "II", "--witness", paths["witness_16"]],
            2, "INCONCLUSIVE"),
        "cq_boxes_3": (["cq", "--problem", paths["boxes_3"], "--at",
                        "0,0,0"], 1, "CQ-FAILS"),
        "kkt_search_boxes_3": (["kkt", "search", "--problem",
                                paths["boxes_3"], "--at", "0,0,0"],
                               0, "CERTIFICATE-FOUND"),
        "kkt_search_ex35_4096": (["kkt", "search", "--problem",
                                  paths["ex35_4096"], "--at", "0,0"],
                                 0, "CERTIFICATE-FOUND"),
        "duality_strong_ex35_4096": (["duality", "strong", "--problem",
                                      paths["ex35_4096"], "--at", "0,0"],
                                     0, "FEASIBLE"),
    }


def test_former_float_commands_import_no_scipy(tmp_path):
    commands = _former_float_commands(_problem_files(tmp_path))
    argvs = {name: [str(a) for a in argv]
             for name, (argv, _, _) in commands.items()}
    script = textwrap.dedent(f"""
        import json, sys
        sys.path[:0] = [{str(SRC)!r}, {str(TESTS)!r}]
        from test_golden import report
        out = {{}}
        for name, argv in json.loads({json.dumps(argvs)!r}).items():
            code, text = report(argv)
            out[name] = [code, json.loads(text).get("verdict")]
        scipy = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
        print(json.dumps({{"results": out, "scipy": scipy}}))
    """)
    run = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    out = json.loads(run.stdout.strip().splitlines()[-1])
    assert out["results"] == {name: [code, verdict] for name, (_, code,
                              verdict) in commands.items()}
    assert out["scipy"] == []


def test_l1_ball_enters_as_16_segments(tmp_path, monkeypatch):
    """No LP of kkt search and duality strong on the dim-16 l1 file has
    more than 2·16 ball columns: each zero_in_sum LP ends in 16 parts of
    one component, part i on axis i with at most two vertices, where the
    box's corners were 2^16 columns of one part."""
    parts_seen = []
    real = setcalc.zero_in_sum

    def spy(parts, *args, **kwargs):
        parts_seen.append(parts)
        return real(parts, *args, **kwargs)

    for module in (certify, verify):
        monkeypatch.setattr(module, "zero_in_sum", spy)
    commands = _former_float_commands(_problem_files(tmp_path))
    for name in ("kkt_search_l1_16", "duality_strong_l1_16"):
        argv, code, _ = commands[name]
        assert report([str(a) for a in argv])[0] == code
    assert len(parts_seen) == 3  # the search, twice, and dual feasibility
    off_axis = ~np.eye(16, dtype=bool)
    for parts in parts_seen:
        ball = parts[-16:]
        assert all(part.ncomponents == 1 for part in ball)
        for i, part in enumerate(ball):
            V = part.components[0].vertices
            assert not V[:, off_axis[i]].any()
        assert sum(part.components[0].nverts for part in ball) <= 2 * 16


def _imported_modules(node) -> list[str]:
    """The modules an import statement, or an ``__import__`` or
    ``import_module`` call on a literal name, brings in."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom):
        return [node.module or ""] if node.level == 0 else []
    if isinstance(node, ast.Call) and node.args and isinstance(
            node.args[0], ast.Constant) and isinstance(node.args[0].value,
                                                       str):
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(
            func, "id", "")
        if name in ("__import__", "import_module"):
            return [node.args[0].value]
    return []


def test_src_imports_no_scipy():
    """No module under src/robustkkt imports scipy, at the top or lazily
    inside a function, so no LP can leave the exact simplex."""
    modules = sorted((SRC / "robustkkt").rglob("*.py"))
    assert len(modules) >= 9
    found = [f"{path.name}:{node.lineno}"
             for path in modules
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if any(m.split(".")[0] == "scipy"
                    for m in _imported_modules(node))]
    assert found == []


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
