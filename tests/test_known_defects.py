"""The open defects of ROADMAP.md's "Known defects", one strict xfail test
each.  Every test writes the problem file recorded there and asserts the
correct verdict, which the code does not give yet; a fix makes its test
pass, which ``strict=True`` reports as a failure until the fix removes
the marker, and ``raises=AssertionError`` keeps a test that breaks for
another reason (a file the loader refuses) from counting as the defect.

Unless a defect says otherwise, its file is example 3.2's layout with new
constraints: objectives ``x1^2`` and ``x2^2``, cone ``>=0, >=0``, theta
``0, 0``, the whole plane, the l2 norm.
"""

from __future__ import annotations

import json
from functools import partial

import pytest

from robustkkt.cli import run_command

defect = partial(pytest.mark.xfail, strict=True, raises=AssertionError)

D1_G1 = '"max(1 - {k}*(v - 3/10000)^2, -1) + 0*x1" with v in [-1, 1]'


def _problem(tmp_path, constraints, objectives=("x1^2", "x2^2"),
             pattern=">=0, >=0", theta="0, 0", options=""):
    path = tmp_path / "p.problem"
    path.write_text(
        "[space]\ndim = 2\n\n"
        f"[cone]\npattern = {pattern}\n\n[theta]\nvalue = {theta}\n\n"
        "[omega]\nkind = whole\n\n[objectives]\n"
        + "".join(f'f{j} = "{f}"\n' for j, f in enumerate(objectives, 1))
        + "\n[constraints]\n"
        + "".join(f"g{i} = {g}\n" for i, g in enumerate(constraints, 1))
        + f"\n[options]\nnorm = l2\n{options}")
    return str(path)


def run(capsys, *argv):
    code = run_command(list(argv))
    return code, json.loads(capsys.readouterr().out)


def feasible_cells(capsys, path):
    code, doc = run(capsys, "raster", "--problem", path, "--region",
                    "-1,1,-1,1", "--res", "3")
    assert code == 0
    return doc["details"]["feasible_cells"]


@defect(reason="D1: the point path misses the "
               "worst case at v = 3e-4 (direction 2)")
def test_d1_unsound_feasible(capsys, tmp_path):
    # the worst case is 1, at v = 3e-4, so no point is feasible
    path = _problem(tmp_path, [D1_G1.format(k=100000000)])
    code, doc = run(capsys, "feasible", "--problem", path, "--at", "0,0")
    assert (code, doc.get("verdict")) == (1, "INFEASIBLE")
    assert feasible_cells(capsys, path) == 0


@defect(reason="D3: the point path raises where "
               "the grid reads infeasible (direction 1)")
def test_d3_domain_error_at_a_point(capsys, tmp_path):
    path = _problem(tmp_path, ['"sqrt(x1) - 5"'])
    code, doc = run(capsys, "feasible", "--problem", path, "--at", "-1,0")
    assert (code, doc.get("verdict")) == (1, "INFEASIBLE")
    assert feasible_cells(capsys, path) == 6  # the x1 = -1 cells are not


@defect(reason="D3b: the grid skips scenarios "
               "where a constraint is undefined (direction 1)")
def test_d3b_undefined_scenarios(capsys, tmp_path):
    # sqrt(v) is undefined for v < 0; sqrt(x1)*v + 5 is 5 where defined
    for g1 in ('"sqrt(v) + x1 - 5" with v in [-1, 1]',
               '"sqrt(x1)*v + 5" with v in [-1, 1]'):
        assert feasible_cells(capsys, _problem(tmp_path, [g1])) == 0


@defect(reason="D3c: a NaN max branch is decided "
               "by its position (direction 1)")
def test_d3c_nan_max_branch(capsys, tmp_path):
    for branches in ("x2 - 5, 1/x1 - 1/x1", "1/x1 - 1/x1, x2 - 5"):
        path = _problem(tmp_path, [f'"max({branches})" with v in [-1, 1]'])
        code, doc = run(capsys, "feasible", "--problem", path, "--at",
                        "1e-320,0")
        assert (code, doc.get("verdict")) == (1, "INFEASIBLE")


@defect(reason="D5: the raster skips the "
               "refinement the point path does (direction 2)")
def test_d5_raster_skips_refinement(capsys, tmp_path):
    path = _problem(tmp_path, [D1_G1.format(k=20000000)])
    code, doc = run(capsys, "feasible", "--problem", path, "--at", "0,0")
    assert (code, doc.get("verdict")) == (1, "INFEASIBLE")
    assert feasible_cells(capsys, path) == 0


@defect(reason="D13: the inscribed 64-gon decides "
               "a negative certificate verdict (direction 14)")
def test_d13_polygon_decides_none_found(capsys, tmp_path):
    # |grad f1| = 0.99920 <= 1 = <y*, theta>: -grad f1 is in the true ball
    path = _problem(tmp_path, [], objectives=("0.998*x1 + 0.049*x2",),
                    pattern=">=0", theta="1", options="ball_facets = 64\n")
    code, doc = run(capsys, "kkt", "search", "--problem", path, "--at", "0,0")
    assert (code, doc.get("verdict")) == (0, "CERTIFICATE-FOUND")


@defect(reason="D14: an outer-estimate "
               "subdifferential makes a certificate (direction 15)")
def test_d14_outer_estimate_certificate(capsys, tmp_path):
    # f1 is the function x1/2, whose only gradient (1/2, 0) is not 0
    path = _problem(tmp_path, [], objectives=(
        "x1/2 + abs(x1) - abs(2*x1)/2",), pattern=">=0", theta="0")
    for mode in ("limiting", "hull"):
        code, doc = run(capsys, "kkt", "search", "--problem", path, "--at",
                        "0,0", "--mode", mode)
        assert (code, doc.get("verdict")) == (1, "NONE-FOUND")
