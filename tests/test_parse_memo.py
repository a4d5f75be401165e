"""The per-process memo of ``funcdsl.parse_expr``.

Every load of the same expression text returns the same tree, with the
code compiled on it, so a program that runs many commands on one problem
parses and compiles each expression once.  These tests pin what that must
not change: reports, the reading of a file rewritten in place, the
refusal of bad text, the memo's bound, and that plain numeric literals
never take a place in it.
"""

from __future__ import annotations

import json

import pytest

from robustkkt import cli
from robustkkt.cli import LoadError, load_problem, parse_scalar
from robustkkt.funcdsl import ParseError, parse_expr

from test_golden import COMMANDS, GOLDEN, csv_digest, report


def test_readme_commands_cold_then_warm(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    parse_expr.cache_clear()
    runs, misses = [], []
    for _ in ("cold", "warm"):
        before = parse_expr.cache_info().misses
        runs.append({name: (*report(argv), csv_digest()
                            if name == "raster" else None)
                     for name, argv in sorted(COMMANDS.items())})
        misses.append(parse_expr.cache_info().misses - before)
    assert misses[0] > 0 and misses[1] == 0, misses
    cold, warm = runs
    assert warm == cold
    for name, (code, text, digest) in cold.items():
        assert code == codes[name], name
        assert text == (GOLDEN / f"{name}.json").read_text(), name
    assert cold["raster"][2] == \
        (GOLDEN / "raster.csv.sha256").read_text().strip()


PROBLEM = """[space]
dim = 2
[cone]
pattern = >=0
[theta]
value = 0
[omega]
kind = whole
[objectives]
f1 = "{f1}"
[constraints]
g1 = "x1 + v*x2 - 1" with v in [-1, 1]
"""


def test_file_rewritten_in_place_is_read_again(tmp_path):
    path = tmp_path / "p.problem"
    path.write_text(PROBLEM.format(f1="abs(x1) + x2"))
    first = load_problem(path)
    path.write_text(PROBLEM.format(f1="abs(x2) - x1"))
    second = load_problem(path)
    assert second.objectives[0] == parse_expr("abs(x2) - x1", 2)
    assert second.objectives[0] != first.objectives[0]
    # the key is the text: an unchanged constraint is the same tree
    assert second.constraints[0].expr is first.constraints[0].expr


def test_equal_texts_share_one_tree_across_files():
    a, b = load_problem("example_2_2"), load_problem("example_3_5")
    for ca, cb in zip(a.constraints, b.constraints, strict=True):
        assert ca.expr is cb.expr


def test_problem_spec_is_built_fresh_on_every_load():
    """The spec and its arrays are new on every load; its trees and its
    read-only fixture sets are shared, as each is a function of its text."""
    a, b = load_problem("example_3_2"), load_problem("example_3_2")
    assert a is not b
    assert a.theta is not b.theta
    assert a.fixtures[0].pset is b.fixtures[0].pset
    with pytest.raises(ValueError):
        a.fixtures[0].pset.components[0].vertices[0, 0] = 1.0
    assert all(x is y for x, y in zip(a.objectives, b.objectives,
                                      strict=True))


@pytest.mark.parametrize("text", ["x1 +", "x3 + 1", "abs(x1", "1/"])
def test_errors_are_raised_again(text):
    with pytest.raises(ParseError) as first:
        parse_expr(text, 2)
    size = parse_expr.cache_info().currsize
    with pytest.raises(ParseError) as second:
        parse_expr(text, 2)
    assert str(second.value) == str(first.value)
    assert second.value is not first.value
    assert parse_expr.cache_info().currsize == size


def test_load_error_is_raised_again(tmp_path):
    path = tmp_path / "p.problem"
    path.write_text(PROBLEM.format(f1="abs(x1 + x2"))
    messages = []
    for _ in range(2):
        with pytest.raises(LoadError) as caught:
            load_problem(path)
        messages.append(str(caught.value))
    assert messages[0] == messages[1]
    assert "objective f1" in messages[0]


def test_memo_is_bounded():
    maxsize = parse_expr.cache_info().maxsize
    assert isinstance(maxsize, int) and maxsize > 0


def test_numeric_literals_never_reach_the_memo():
    load_problem("example_3_2")
    before = parse_expr.cache_info()
    literals = ["0", "1", "-2.5", "+3", "0.3535", "-1/4", "7/2", "1e-3",
                ".5", "5.", "1E3", " 2 "]
    literals += [f"{k / 7:.6f}" for k in range(-50, 50)]
    for text in literals:
        parse_scalar(text)
    assert parse_expr.cache_info() == before


def test_distinct_points_keep_the_problem_trees(capsys):
    cli.run_command(["feasible", "--problem", "example_3_2", "--at", "0,0"])
    before = parse_expr.cache_info()
    for k in range(50):
        cli.run_command(["feasible", "--problem", "example_3_2",
                         "--at", f"{k / 1000:.3f},-{k}"])
    capsys.readouterr()
    after = parse_expr.cache_info()
    assert (after.misses, after.currsize) == (before.misses, before.currsize)

