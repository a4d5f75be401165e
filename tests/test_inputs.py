"""Tests generated from the input table ``cli.TABLE``.

Every row with bounds is refused, with exit 3 and a message naming it,
below its floor, above its limit, at NaN, at inf and at non-numeric text,
and admitted at each bound: a stub in place of the command's work (or of
``ProblemSpec`` for a problem-file entry) is reached.  A list row is
refused with one entry too few or too many and when it is not a list;
a bad entry is refused naming the literal (``parse_scalar``'s message,
which ``tests/test_cli.py`` asserts for ``--at``).  README's option
tables are checked against the table.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from robustkkt import cli
from robustkkt.cli import TABLE, load_problem, resolve_problem_path, \
    run_command

from helpers import Reached, _reach

FIXTURES = resolve_problem_path("example_3_2").parent
CERT = str(FIXTURES / "example_3_2.cert.json")
TRIPLE = str(Path(__file__).parent / "golden" / "triple_3_5.json")

# per verb: an argv with every required option valid, and the call that
# stands in for the verb's work
BASE = {
    "feasible": (["feasible", "--problem", "example_3_2", "--at", "0.01,0"],
                 "compute_active_sets"),
    "raster": (["raster", "--problem", "example_3_2",
                "--region", "-5,1,-5,5"], "raster"),
    "subdiff": (["subdiff", "--problem", "example_3_2", "--target", "g1",
                 "--at", "0,0"], "limiting_subdiff"),
    "cq": (["cq", "--problem", "example_3_2", "--at", "0,0"], "check_cq"),
    "kkt check": (["kkt", "check", "--problem", "example_3_2", "--at", "0,0",
                   "--cert", CERT, "--fixtures"], "check_kkt"),
    "kkt search": (["kkt", "search", "--problem", "example_3_5", "--at",
                    "0,0"], "search_kkt"),
    "fuzzy": (["fuzzy", "--problem", "example_3_2", "--at", "0,0",
               "--ystar", "0.3535,0,0.3535", "--eta", "0.1"],
              "fuzzy_kkt_demo"),
    "pseudoconvex": (["pseudoconvex", "--problem", "example_3_5", "--at",
                      "0,0", "--type", "I", "--region", "-2,2,-2,2"],
                     "pseudoconvex_test"),
    "efficiency": (["efficiency", "--problem", "example_3_2", "--at", "0,0",
                    "--kind", "weak-quasi", "--region", "-5,1,-5,5"],
                   "classify_point"),
    "duality weak": (["duality", "weak", "--problem", "example_3_5", "--at",
                      "0,0", "--region", "-3,3,-4,1"],
                     "weak_duality_check"),
    "duality strong": (["duality", "strong", "--problem", "example_3_5",
                        "--at", "0,0"], "strong_duality_from"),
    "duality converse": (["duality", "converse", "--problem", "example_3_5",
                          "--triple", TRIPLE, "--region", "-3,3,-4,1"],
                         "converse_duality_check"),
}


def verbs(row) -> list[str]:
    """The verbs that read a command-line row, "" for an option given
    before the command's name."""
    return [verb.rstrip("!") for verb in row.commands.split(", ")]


def per_command(rows):
    """(row, verb) for the first verb of each command that reads the row:
    a row reads its value alike for each verb."""
    seen = set()
    for row in rows:
        for verb in verbs(row):
            if verb and (row.name, verb.split()[0]) not in seen:
                seen.add((row.name, verb.split()[0]))
                yield row, verb


def _numeric(row) -> bool:
    return callable(row.parse) and row.parse is not bool and not row.size


def _bounded(row) -> bool:
    return _numeric(row) and math.isfinite(row.most)


def _text(value) -> str:
    return str(value) if isinstance(value, int) else repr(float(value))


def _bad_values(row) -> list[str]:
    """Below the floor, above the limit, NaN, inf and text, each refused."""
    out = ["nan", "inf", "abc"]
    if _bounded(row):
        out = [_text(row.least - 1), _text(row.most + 1)] + out
    return out


CLI_CASES = list(per_command(
    row for row in TABLE if row.kind == "cli" and (_numeric(row) or row.size)))
CLI_IDS = [f"{verb.split()[0]}{row.name}" for row, verb in CLI_CASES]


def _argv(verb: str, flag: str, value: str) -> list[str]:
    argv = list(BASE[verb][0])
    if flag in argv:
        del argv[argv.index(flag):argv.index(flag) + 2]
    return argv + [f"{flag}={value}"]


def _run(capsys, argv):
    code = run_command(argv)
    out, err = capsys.readouterr()
    return code, (json.loads(out)["error"] if out else err)


@pytest.mark.parametrize("row, verb", CLI_CASES, ids=CLI_IDS)
def test_option_refused(capsys, row, verb):
    if row.size:
        base = {"d": ["0", "0"], "p": ["0.5", "0", "0.5"],
                "2d": ["-1", "1", "-1", "1"]}[row.size[0]]
        cases = [(",".join(base[:-1]), row.name), (",".join(base + ["0"]),
                                                   row.name)]
        cases += [(",".join([t] + base[1:]), t) for t in ("nan", "inf",
                                                           "abc")]
    else:
        cases = [(value, row.name) for value in _bad_values(row)]
    for value, named in cases:
        code, error = _run(capsys, _argv(verb, row.name, value))
        assert code == 3, (value, error)
        assert named in error, (value, error)


@pytest.mark.parametrize("row, verb", [
    case for case in CLI_CASES if _bounded(case[0])],
    ids=[i for i, case in zip(CLI_IDS, CLI_CASES) if _bounded(case[0])])
def test_option_bounds_reach_the_command(capsys, monkeypatch, row, verb):
    monkeypatch.setattr(cli, BASE[verb][1], _reach)
    for bound in (row.least, row.most):
        with pytest.raises(Reached):
            run_command(_argv(verb, row.name, _text(bound)))
    capsys.readouterr()


# each word row once per command, and for kkt and duality a verb that
# the command does not have (argparse's dest for the verb is "action")
WORD_CASES = [(row.name, verb) for row, verb in per_command(
    r for r in TABLE if r.kind == "cli" and isinstance(r.parse, tuple))]
WORD_CASES += [("action", command) for command in sorted(
    {verb.split()[0] for verb in cli.COMMANDS if " " in verb})]


WORD_IDS = [f"{n}-{v.split()[0]}" for n, v in WORD_CASES]


def word_argv(name: str, verb: str) -> list[str]:
    """A command line that gives the word option name (or the verb of
    kkt or duality) the word bogus."""
    if name == "action":
        return [verb, "bogus", "--problem", "example_3_2"]
    return _argv(verb, name, "bogus")


@pytest.mark.parametrize("name, verb", WORD_CASES, ids=WORD_IDS)
def test_word_not_allowed(capsys, name, verb):
    code, error = _run(capsys, word_argv(name, verb))
    assert code == 3 and name.lstrip("-") in error
    assert "invalid choice: 'bogus'" in error or "must be one of" in error


# ---------------------------------------------------------------------------
# Problem files
# ---------------------------------------------------------------------------

def _problem(tmp_path, row, value) -> str:
    path = tmp_path / "p.problem"
    if row.kind == "space":
        path.write_text(f"[space]\ndim = {value}\n[cone]\npattern = >=0\n"
                        "[theta]\nvalue = 0\n[omega]\nkind = whole\n"
                        '[objectives]\nf1 = "1"\n')
    else:
        # the entry replaces the file's own: a key may not repeat
        base = re.sub(rf"(?m)^{row.name} = .*\n", "", resolve_problem_path(
            "example_3_2").read_text())
        path.write_text(base + f"{row.name} = {value}\n")
    return str(path)


FILE_ROWS = [row for row in TABLE if row.kind in ("space", "options")]


@pytest.mark.parametrize("row", FILE_ROWS, ids=[r.name for r in FILE_ROWS])
def test_problem_entry_refused(capsys, tmp_path, row):
    values = ["l3"] if isinstance(row.parse, tuple) else _bad_values(row)
    for value in values:
        code, error = _run(capsys, ["feasible", "--problem",
                                    _problem(tmp_path, row, value),
                                    "--at", "0,0"])
        assert code == 3, (value, error)
        assert row.name in error, (value, error)


@pytest.mark.parametrize("row", [r for r in FILE_ROWS if _bounded(r)],
                         ids=[r.name for r in FILE_ROWS if _bounded(r)])
def test_problem_entry_bounds_reach_the_spec(monkeypatch, tmp_path, row):
    monkeypatch.setattr(cli, "ProblemSpec", _reach)
    for bound in (row.least, row.most):
        with pytest.raises(Reached):
            load_problem(_problem(tmp_path, row, _text(bound)))


@pytest.mark.parametrize("row", [r for r in TABLE if r.kind == "count"],
                         ids=lambda r: r.name)
def test_section_size_refused(capsys, tmp_path, row):
    p, n = 1, 0
    for count in (row.least - 1, row.most + 1):
        if count < 0:
            continue
        if row.name == "objectives":
            p = count
        else:
            n = count
        path = tmp_path / "p.problem"
        path.write_text(
            "[space]\ndim = 2\n[cone]\npattern = "
            + ", ".join([">=0"] * max(p, 1)) + "\n[theta]\nvalue = "
            + ", ".join(["0"] * max(p, 1)) + "\n[omega]\nkind = whole\n"
            + "[objectives]\n" + "".join(f'f{j} = "x1"\n' for j in range(p))
            + "[constraints]\n"
            + "".join(f'g{j} = "x1 - {j}"\n' for j in range(n)))
        code, error = _run(capsys, ["feasible", "--problem", str(path),
                                    "--at", "0,0"])
        assert code == 3 and row.name.rstrip("s") in error, error


# each edit of example_3_2 repeats a name that must appear once, and the
# refusal names the name and the line of its second appearance
DUPLICATES = {
    "space": (("dim = 2\n", "dim = 2\ndim = 3\n"),
              "duplicate key 'dim' in [space]", "dim = 3"),
    "options": (("ball_facets = 64\n", "ball_facets = 64\nball_facets = 8\n"),
                "duplicate key 'ball_facets' in [options]", "ball_facets = 8"),
    "objectives": (('f3 = "', 'f1 = "x1"\nf3 = "'),
                   "duplicate function name 'f1'", 'f1 = "x1"'),
    "constraints": (('g2 = "', 'g1 = "x1"\ng2 = "'),
                    "duplicate function name 'g1'", 'g1 = "x1"'),
    "across": (('g2 = "', 'f2 = "x1"\ng2 = "'),
               "duplicate function name 'f2'", 'f2 = "x1"'),
}


@pytest.mark.parametrize("case", DUPLICATES)
def test_duplicate_name_refused(capsys, tmp_path, case):
    (old, new), message, line = DUPLICATES[case]
    text = resolve_problem_path("example_3_2").read_text()
    assert text.count(old) == 1
    text = text.replace(old, new)
    path = tmp_path / "p.problem"
    path.write_text(text)
    lineno = text.splitlines().index(line) + 1
    code, error = _run(capsys, ["feasible", "--problem", str(path),
                                "--at", "0,0"])
    assert code == 3
    assert error == f"{message} (line {lineno})"


# each edit of example_3_2 puts in a section or key that no reader reads,
# and the refusal names it and its line
UNKNOWN = {
    # a misspelt [options] would drop the norm it sets
    "section": (("[options]\n", "[option]\nnorm = linf\n"),
                "unknown section [option]", "[option]"),
    # ... or the fixture under it
    "fixture-section": (("[options]\n", "[optoins]\nfixture = f1 @ 0, 0 : "
                         "{(1, 0)}\n[options]\n"),
                        "unknown section [optoins]", "[optoins]"),
    "space": (("dim = 2\n", "dim = 2\nfoo = 1\n"),
              "unknown key 'foo' in [space]", "foo = 1"),
    "cone": (("[cone]\n", "[cone]\nsigns = >=0\n"),
             "unknown key 'signs' in [cone]", "signs = >=0"),
    "theta": (("[theta]\n", "[theta]\ntheta = 0\n"),
              "unknown key 'theta' in [theta]", "theta = 0"),
    "omega": (("kind = whole\n", "kind = whole\nbound = 0..1, 0..1\n"),
              "unknown key 'bound' in [omega]", "bound = 0..1, 0..1"),
}


@pytest.mark.parametrize("case", UNKNOWN)
def test_unknown_section_or_key_refused(capsys, tmp_path, case):
    (old, new), message, line = UNKNOWN[case]
    text = resolve_problem_path("example_3_2").read_text()
    assert text.count(old) == 1
    text = text.replace(old, new)
    path = tmp_path / "p.problem"
    path.write_text(text)
    lineno = text.splitlines().index(line) + 1
    code, error = _run(capsys, ["feasible", "--problem", str(path),
                                "--at", "0,0"])
    assert code == 3
    assert error == f"{message} (line {lineno})"


def test_every_bundled_problem_loads():
    for path in sorted(FIXTURES.glob("*.problem")):
        assert load_problem(path).dim == 2


def test_fixtures_and_halfspaces_may_repeat(tmp_path):
    text = resolve_problem_path("example_3_2").read_text().replace(
        "kind = whole", "kind = halfspaces\nh = 1, 0 : 1\nh = 0, 1 : 1")
    path = tmp_path / "p.problem"
    path.write_text(text)
    spec = load_problem(path)
    assert len(spec.fixtures) == 5
    assert spec.omega.contains(np.array([1.0, 1.0]))
    assert not spec.omega.contains(np.array([1.0, 1.5]))


@pytest.mark.parametrize("line, kept", [
    ('f1 = "x1" # a comment', 'f1 = "x1"'),
    ('f1 = "x1 # not a comment"', 'f1 = "x1 # not a comment"'),
    ('f1 = "x1 # inside" # after "x" # more', 'f1 = "x1 # inside"'),
    ('f1 = "x1 # left open', 'f1 = "x1 # left open'),
    ("# only a comment", ""),
    ("dim = 2   ", "dim = 2"),
])
def test_comment_stripped_outside_quotes(line, kept):
    assert cli._strip_comment(line) == kept


# ---------------------------------------------------------------------------
# JSON files
# ---------------------------------------------------------------------------

def _triple_argv(path):
    return ["duality", "converse", "--problem", "example_3_5", "--triple",
            path, "--kind", "I", "--region", "-3,3,-4,1", "--res", "21"]


JSON = {
    "certificate": (json.loads(Path(CERT).read_text()), "check_kkt",
                    lambda path: ["kkt", "check", "--problem", "example_3_2",
                                  "--at", "0,0", "--cert", path,
                                  "--fixtures"]),
    "witness": (json.loads((FIXTURES / "example_2_2_witness.json")
                           .read_text()), "witnessed_failure_check",
                lambda path: ["pseudoconvex", "--problem", "example_2_2",
                              "--at", "0,0", "--type", "II", "--witness",
                              path]),
    "triple": ({"z": [0, 0], "ystar": [0, 0, "1/33"], "mu": ["32/33", 0]},
               "converse_duality_check", _triple_argv),
}
JSON_ROWS = [row for row in TABLE if row.kind in JSON]


@pytest.mark.parametrize("kind", JSON)
def test_valid_file_reaches_the_command(capsys, monkeypatch, tmp_path, kind):
    doc, target, argv = JSON[kind]
    monkeypatch.setattr(cli, target, _reach)
    path = tmp_path / "f.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(Reached):
        run_command(argv(str(path)))


@pytest.mark.parametrize("row", JSON_ROWS,
                         ids=[f"{r.kind}.{r.name}" for r in JSON_ROWS])
def test_file_field_refused(capsys, tmp_path, row):
    base, _, argv = JSON[row.kind]
    label = f"{row.kind} field {row.name}"
    values = base[row.name]
    cases = [(values[:-1], label), (values + [values[0]], label), (5, label)]
    for bad in (math.nan, math.inf, "abc"):
        entry = json.loads(json.dumps(values))
        (entry[0] if len(row.size) > 1 else entry)[0] = bad
        cases.append((entry, "abc" if bad == "abc" else repr(str(bad))))
    path = tmp_path / "f.json"
    for value, named in cases:
        path.write_text(json.dumps({**base, row.name: value}))
        code, error = _run(capsys, argv(str(path)))
        assert code == 3, (value, error)
        assert named in error, (value, error)


# ---------------------------------------------------------------------------
# README
# ---------------------------------------------------------------------------

SIZES = {"d": "one per coordinate", "p": "one per objective",
         "2d": "two per coordinate"}


def readme_line(row) -> str:
    """The line of README's option tables for one row."""
    if row.kind == "cli":
        name = f"`{row.name}`"
        listed = row.commands.split(", ") if row.commands else []
        required = ", ".join(c[:-1] for c in listed if c.endswith("!"))
        optional = ", ".join(c for c in listed if not c.endswith("!"))
        where = f"{required or '—'} | {optional or '—'}" if listed \
            else "— | every command, before its name"
    else:
        name = f"`[{row.name}]` entries" if row.kind == "count" \
            else f"`{row.name}`"
        where = f"`[{row.kind}]`" if row.kind != "count" else "section"
    default = "—" if row.default is None else f"`{cli._fmt(row.default)}`"
    if row.parse is bool:
        allowed = "flag"
    elif isinstance(row.parse, tuple):
        allowed = ", ".join(f"`{w}`" for w in row.parse)
    elif row.size:
        allowed = SIZES[row.size[0]]
    elif math.isfinite(row.most):
        allowed = f"{cli._fmt(row.least)} to {cli._fmt(row.most)}"
    else:
        allowed = "a number" if row.parse else "text"
    return f"| {name} | {where} | {default} | {allowed} |"


def test_readme_lists_every_option():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    listed = [line for line in readme.splitlines()
              if re.match(r"\| `", line)]
    expected = [readme_line(row) for row in TABLE
                if row.kind in ("cli", "space", "count", "options")]
    assert listed == expected
