import argparse
import hashlib
import inspect
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from robustkkt import certify, cli, robustfeas
from robustkkt.certify import ystar_grid, ystar_grid_size
from robustkkt.cli import (
    LoadError,
    load_problem,
    parse_scalar,
    resolve_problem_path,
    run_command,
)
from robustkkt.funcdsl import MAX_NESTING
from robustkkt.subdiff import direct_subdiff

from helpers import Reached, _reach
from test_inputs import BASE, CERT, TRIPLE, WORD_CASES, WORD_IDS, verbs, \
    word_argv

WITNESS = str(resolve_problem_path("example_2_2").parent
              / "example_2_2_witness.json")


def run_json(capsys, argv):
    code = run_command(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestLoadProblem:
    def test_example_3_2(self, spec32):
        assert spec32.dim == 2
        assert spec32.n_objectives == 3 and spec32.n_constraints == 2
        assert spec32.cone.pattern == (1, 1, 1)
        assert np.allclose(spec32.theta, [0, 1, 0])

    def test_example_2_2(self, spec22):
        assert spec22.cone.pattern == (-1, 1, 1)
        assert np.allclose(spec22.theta, [0, 0, 1.5])
        assert spec22.constraints[0].lo == -1.0
        assert spec22.constraints[0].hi == -0.25

    def test_fixture_sets_resolved(self, spec32_fixtures):
        fx = spec32_fixtures.fixture_for("f3", [0, 0])
        assert fx is not None and fx.ncomponents == 2
        assert spec32_fixtures.fixture_for("f3", [1, 0]) is None

    def test_theta_outside_cone_rejected(self, tmp_path):
        bad = tmp_path / "bad.problem"
        bad.write_text("""
[space]
dim = 1
[cone]
pattern = >=0
[theta]
value = -1
[omega]
kind = whole
[objectives]
f1 = "x1"
""")
        with pytest.raises(LoadError, match="theta"):
            load_problem(bad)

    def test_parse_error_carries_line(self, tmp_path):
        bad = tmp_path / "bad.problem"
        bad.write_text("[space]\ndim = 1\nglorp\n")
        with pytest.raises(LoadError, match="line 3"):
            load_problem(bad)

    def test_fixture_must_reference_declared_name(self, tmp_path):
        bad = tmp_path / "bad.problem"
        bad.write_text("""
[space]
dim = 1
[cone]
pattern = >=0
[theta]
value = 0
[omega]
kind = whole
[objectives]
f1 = "x1"
[options]
fixture = f9 @ 0 : {(1)}
""")
        with pytest.raises(LoadError, match="undeclared"):
            load_problem(bad)

    def test_scalar_forms(self):
        assert parse_scalar("3/4") == 0.75
        assert parse_scalar("sqrt(2)/4") == pytest.approx(2 ** 0.5 / 4)
        assert parse_scalar("-0.25") == -0.25


def _problem(tmp_path, constraint: str):
    path = tmp_path / "p.problem"
    path.write_text(f"""
[space]
dim = 2
[cone]
pattern = >=0
[theta]
value = 0
[omega]
kind = whole
[objectives]
f1 = "x1 + x2"
[constraints]
g1 = {constraint}
""")
    return str(path)


class TestCommands:
    def test_kkt_search_exit_zero(self, capsys):
        code, doc = run_json(capsys, ["kkt", "search",
                                      "--problem", "example_3_5",
                                      "--at", "0,0"])
        assert code == 0
        assert doc["verdict"] == "CERTIFICATE-FOUND"
        assert doc["details"]["recheck"]["valid"] is True

    def test_kkt_check_fixture_mode(self, capsys, fixtures_dir):
        cert = str(fixtures_dir / "example_3_2.cert.json")
        code, doc = run_json(capsys, ["kkt", "check",
                                      "--problem", "example_3_2",
                                      "--at", "0,0", "--cert", cert,
                                      "--fixtures"])
        assert code == 0 and doc["verdict"] == "VALID"

    def test_efficiency_exit_zero(self, capsys):
        code, doc = run_json(capsys, [
            "efficiency", "--kind", "weak-quasi", "--problem", "example_3_2",
            "--at", "0,0", "--region", "-5,1,-5,5", "--res", "61"])
        assert code == 0 and doc["verdict"] == "NO-COUNTEREXAMPLE"

    def test_raster_writes_csv(self, capsys, tmp_path):
        out = tmp_path / "f.csv"
        code, doc = run_json(capsys, [
            "raster", "--problem", "example_3_2", "--region", "-5,1,-5,5",
            "--res", "21", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "x1,x2,feasible"
        assert len(lines) == 1 + 21 * 21

    def test_feasible_exit_codes(self, capsys):
        code, _ = run_json(capsys, ["feasible", "--problem", "example_3_2",
                                    "--at", "-1,3"])
        assert code == 0
        code, _ = run_json(capsys, ["feasible", "--problem", "example_3_2",
                                    "--at", "1,0"])
        assert code == 1

    def test_cq_exit_zero(self, capsys):
        code, doc = run_json(capsys, ["cq", "--problem", "example_3_2",
                                      "--at", "0,0"])
        assert code == 0 and doc["verdict"] == "CQ-HOLDS"

    def test_subdiff_reports_provenance(self, capsys):
        code, doc = run_json(capsys, ["subdiff", "--problem", "example_3_2",
                                      "--target", "f2", "--at", "0,0",
                                      "--mode", "limiting"])
        assert code == 0
        assert doc["details"]["provenance"] == "engine"
        assert len(doc["details"]["set"]["components"]) == 2

    def test_pseudoconvex_witness_exit_one(self, capsys, fixtures_dir):
        w = str(fixtures_dir / "example_2_2_witness.json")
        code, doc = run_json(capsys, [
            "pseudoconvex", "--problem", "example_2_2", "--at", "0,0",
            "--type", "II", "--witness", w])
        assert code == 1 and doc["verdict"] == "WITNESSED-FAILURE"
        assert abs(doc["details"]["lp_optimum"]) <= 1e-12

    def test_pseudoconvex_mixed_sweep(self, capsys):
        """A sweep with some samples INCONCLUSIVE is INCONCLUSIVE (exit 2),
        and counts every sample's verdict."""
        code, doc = run_json(capsys, [
            "pseudoconvex", "--problem", "example_3_2", "--at", "0,0",
            "--type", "I", "--region", "-2,2,-2,2", "--grid", "5",
            "--y-res", "4"])
        assert code == 2 and doc["verdict"] == "INCONCLUSIVE"
        assert doc["details"] == {
            "counts": {"INCONCLUSIVE": 3, "VERIFIED-CANDIDATE-W": 8,
                       "VERIFIED-COMMON-W": 14},
            "lp_optimum": None, "samples": 25}

    def test_pseudoconvex_off_the_plane(self, capsys, tmp_path):
        """In three dimensions the sweep is refused and a witness is
        checked: the cuts <(1, 1, 1), w> <= 0 and >= 0 of g1's limiting
        set leave no w with <u, w> < 0."""
        problem = tmp_path / "cube.problem"
        problem.write_text(
            "[space]\ndim = 3\n[cone]\npattern = >=0\n[theta]\nvalue = 0\n"
            '[omega]\nkind = whole\n[objectives]\nf1 = "x1 + x2 + x3"\n'
            '[constraints]\ng1 = "-abs(x1 + x2 + x3)"\n')
        argv = ["pseudoconvex", "--problem", str(problem), "--at", "0,0,0",
                "--type", "I"]
        code, doc = run_json(capsys, argv + ["--region", "-1,1,-1,1,-1,1"])
        assert code == 3
        assert doc["error"] == "grid sampling requires dimension 2"
        witness = tmp_path / "w.json"
        witness.write_text(json.dumps(
            {"x": [-1, 0, 0], "ystar": [1], "u": [[1, 1, 1]]}))
        code, doc = run_json(capsys, argv + ["--witness", str(witness)])
        assert code == 1 and doc["verdict"] == "WITNESSED-FAILURE"
        assert abs(doc["details"]["lp_optimum"]) <= 1e-12

    KINK = """
[space]
dim = 2
[cone]
pattern = >=0
[theta]
value = 0
[omega]
kind = whole
[objectives]
f1 = "-abs(x1) + x2"
[constraints]
g1 = "x1 - 5"
[options]
fixture = f1 @ 0,0 : {(0,2)}
"""

    def _kink(self, tmp_path, u, *flags, fixture=""):
        """pseudoconvex --witness at 0,0 on f1 = -abs(x1) + x2, whose
        limiting set there is {(-1, 1)} | {(1, 1)} and whose fixture is
        {(0, 2)}."""
        problem = tmp_path / "kink.problem"
        problem.write_text(self.KINK + fixture)
        witness = tmp_path / "w.json"
        witness.write_text(json.dumps({"x": [1, 0], "ystar": [1], "u": u}))
        return ["pseudoconvex", "--problem", str(problem), "--at", "0,0",
                "--type", "II", "--witness", str(witness), *flags]

    def test_witness_reads_the_fixture(self, capsys, tmp_path):
        # (0, 2) is the fixture's one point, and lies off the engine's hull
        code, doc = run_json(capsys, self._kink(tmp_path, [[0, 2]],
                                                "--fixtures"))
        assert code == 2 and doc["verdict"] == "INCONCLUSIVE"
        code, doc = run_json(capsys, self._kink(tmp_path, [[0, 2]]))
        assert code == 3
        assert doc["error"] == ("witness u[0] outside the subdifferential "
                                "(residual 1)")

    def test_witness_checked_in_the_mode_asked(self, capsys, tmp_path):
        # (0, 1) lies in the hull of the limiting set, not in the set
        code, doc = run_json(capsys, self._kink(tmp_path, [[0, 1]]))
        assert code == 3
        assert doc["error"] == ("witness u[0] outside the subdifferential "
                                "(residual 1)")
        code, doc = run_json(capsys, self._kink(tmp_path, [[0, 1]],
                                                "--mode", "hull"))
        assert code == 2 and doc["verdict"] == "INCONCLUSIVE"

    def test_witness_refuses_a_constraint_fixture(self, capsys, tmp_path):
        argv = self._kink(tmp_path, [[1, 1]], "--fixtures",
                          fixture="fixture = g1 @ 0,0 : {(1,0)}\n")
        code, doc = run_json(capsys, argv)
        assert code == 3 and "g1 has one at this point" in doc["error"]
        code, doc = run_json(capsys, argv[:-1])
        assert code == 2 and doc["verdict"] == "INCONCLUSIVE"

    def test_sweep_refuses_fixtures(self, capsys, tmp_path):
        """The sweep reads no fixture, so it refuses --fixtures whether a
        fixture sits at the point (f1 here) or none does (example_2_2,
        which gave VERIFIED with fixtures asked for and none read)."""
        kink = self._kink(tmp_path, [[0, 2]])[:-2] + ["--region",
                                                      "-1,1,-1,1"]
        bare = ["pseudoconvex", "--problem", "example_2_2", "--at", "0,0",
                "--type", "I", "--region", "-2,2,-2,2"]
        for argv in (kink, bare):
            code, doc = run_json(capsys, argv)
            assert code == 0 and doc["verdict"] == "VERIFIED"
            code, doc = run_json(capsys, argv + ["--fixtures"])
            assert code == 3
            assert doc["error"] == ("--fixtures is an option of --witness, "
                                    "not of the sweep")

    def test_duality_strong(self, capsys):
        code, doc = run_json(capsys, ["duality", "strong",
                                      "--problem", "example_3_5",
                                      "--at", "0,0"])
        assert code == 0 and doc["verdict"] == "FEASIBLE"

    def test_duality_weak_from_point(self, capsys):
        code, doc = run_json(capsys, [
            "duality", "weak", "--problem", "example_3_5", "--at", "0,0",
            "--kind", "I", "--region", "-3,3,-4,1", "--samples", "50"])
        assert code == 0 and doc["verdict"] == "NO-VIOLATION"
        assert doc["details"]["pairs_checked"] == 50

    def test_duality_converse_from_triple(self, capsys, tmp_path):
        triple = tmp_path / "t.json"
        triple.write_text(json.dumps(
            {"z": [0, 0], "ystar": [0, 0, "1/33"], "mu": ["32/33", 0]}))
        code, doc = run_json(capsys, [
            "duality", "converse", "--problem", "example_3_5",
            "--triple", str(triple), "--kind", "I",
            "--region", "-3,3,-4,1", "--res", "61"])
        assert code == 0 and doc["verdict"] == "NO-COUNTEREXAMPLE"

    @pytest.mark.parametrize("argv, counted", [
        (["pseudoconvex", "--problem", "example_2_2", "--at", "0,0",
          "--type", "I", "--region", "-2,2,-2,2", "--grid", "0"],
         ["samples"]),
        (["efficiency", "--problem", "example_3_2", "--at", "0,0",
          "--kind", "weak-quasi", "--region", "-5,1,-5,5", "--res", "0"],
         ["feasible_checked"]),
        (["duality", "converse", "--problem", "example_3_5", "--triple",
          "TRIPLE", "--kind", "I", "--region", "-3,3,-4,1", "--res", "0"],
         ["efficiency", "feasible_checked"]),
    ], ids=["pseudoconvex", "efficiency", "duality-converse"])
    def test_zero_samples_are_inconclusive(self, capsys, tmp_path, argv,
                                           counted):
        """A verdict over no checked sample affirms nothing: it was
        VERIFIED or NO-COUNTEREXAMPLE with exit 0."""
        triple = tmp_path / "t.json"
        triple.write_text(json.dumps(
            {"z": [0, 0], "ystar": [0, 0, "1/33"], "mu": ["32/33", 0]}))
        argv = [str(triple) if a == "TRIPLE" else a for a in argv]
        code, doc = run_json(capsys, argv)
        assert code == 2 and doc["verdict"] == "INCONCLUSIVE"
        value = doc["details"]
        for key in counted:
            value = value[key]
        assert value == 0

    @pytest.mark.parametrize("action, flag", [
        ("converse", "--mode"), ("converse", "--fixtures"),
        ("weak", "--fixtures")])
    def test_duality_dual_feasibility_follows_flags(self, capsys, tmp_path,
                                                    action, flag):
        """The triple (0, 0), y* = 1, mu = 1 is dual-feasible only where
        f1's set at the origin holds (0, 1), against g1's (0, -1): in
        hull mode, or under the fixture, not in the limiting set
        {(-1, 1), (1, 1)}.  The dual feasibility checks of converse and
        weak duality ran in limiting mode without fixtures whatever the
        flags (exit 3, "requires ... dual-feasible")."""
        fixture = ("[options]\nfixture = f1 @ 0,0 : {(0,1)}\n"
                   if flag == "--fixtures" else "")
        problem = tmp_path / "p.problem"
        problem.write_text(
            "[space]\ndim = 2\n[cone]\npattern = >=0\n[theta]\nvalue = 0\n"
            '[omega]\nkind = whole\n[objectives]\nf1 = "-abs(x1) + x2"\n'
            + fixture + '[constraints]\ng1 = "-x2 + v - 1" with v in [0, 1]\n')
        triple = {"z": [0, 0], "ystar": [1], "mu": [1]}
        path = tmp_path / "t.json"
        path.write_text(json.dumps(triple if action == "converse"
                                   else [triple]))
        argv = ["duality", action, "--problem", str(problem),
                "--triple" if action == "converse" else "--triples",
                str(path), "--kind", "I", "--region", "-1,1,-1,1",
                *(["--res", "21"] if action == "converse"
                  else ["--samples", "50"])]
        code, doc = run_json(capsys, argv)
        assert code == 3 and "dual-feasible" in doc["error"]
        flags = ["--mode", "hull"] if flag == "--mode" else ["--fixtures"]
        code, doc = run_json(capsys, argv + flags)
        # f1(1, 0) = -1 < f1(0, 0): the triple is accepted, and the
        # conclusion fails on this problem, which is not pseudo-convex
        assert code == 1 and doc["verdict"] == (
            "COUNTEREXAMPLE" if action == "converse" else "VIOLATION")
        # the nested records are objects of their fields, as no golden shows
        if action == "converse":
            assert set(doc["details"]["efficiency"]) == {
                "kind", "no_counterexample", "counterexample", "violation",
                "region", "resolution", "feasible_checked"}
        else:
            violation = doc["details"]["violation"]
            assert set(violation["triple"]) == {"z", "ystar", "mu"}
            for key in ("x", "relation_value"):
                assert isinstance(violation[key], list) and all(
                    isinstance(t, (int, float)) for t in violation[key])
        assert doc["config"] == {"fixtures": flag == "--fixtures",
                                 "mode": "hull" if flag == "--mode"
                                 else "limiting"}

    def test_duality_weak_from_triples(self, capsys, tmp_path):
        triples = tmp_path / "t.json"
        triples.write_text(json.dumps(
            [{"z": [0, 0], "ystar": [0, 0, "1/33"], "mu": ["32/33", 0]}]))
        code, doc = run_json(capsys, [
            "duality", "weak", "--problem", "example_3_5",
            "--triples", str(triples), "--kind", "I",
            "--region", "-3,3,-4,1", "--samples", "50"])
        assert code == 0 and doc["verdict"] == "NO-VIOLATION"

    @pytest.mark.parametrize("field, value, error", [
        ("z", [0, 0, 0], "triple field z has 3 entries, the problem needs 2"),
        ("ystar", [0, "1/33"],
         "triple field ystar has 2 entries, the problem needs 3"),
        ("mu", ["32/33"], "triple field mu has 1 entries, the problem needs 2"),
    ], ids=["z", "ystar", "mu"])
    @pytest.mark.parametrize("action, option", [("converse", "--triple"),
                                                ("weak", "--triples")])
    def test_triple_fields_checked(self, capsys, tmp_path, action, option,
                                   field, value, error):
        doc = {"z": [0, 0], "ystar": [0, 0, "1/33"], "mu": ["32/33", 0]}
        doc[field] = value
        path = tmp_path / "t.json"
        path.write_text(json.dumps(doc if action == "converse" else [doc]))
        code, out = run_json(capsys, [
            "duality", action, "--problem", "example_3_5", option, str(path),
            "--kind", "I", "--region", "-3,3,-4,1",
            *(["--res", "21"] if action == "converse"
              else ["--samples", "20"])])
        assert code == 3
        assert out["error"] == error

    def test_triple_without_field_refused(self, capsys, tmp_path):
        path = tmp_path / "t.json"
        path.write_text(json.dumps({"z": [0, 0], "ystar": [0, 0, "1/33"]}))
        code, out = run_json(capsys, [
            "duality", "converse", "--problem", "example_3_5", "--triple",
            str(path), "--kind", "I", "--region", "-3,3,-4,1"])
        assert code == 3
        assert out["error"] == "triple field mu is missing"

    def test_triple_file_not_an_object_refused(self, capsys, tmp_path):
        path = tmp_path / "t.json"
        path.write_text(json.dumps(
            [{"z": [0, 0], "ystar": [0, 0, "1/33"], "mu": ["32/33", 0]}]))
        code, out = run_json(capsys, [
            "duality", "converse", "--problem", "example_3_5", "--triple",
            str(path), "--kind", "I", "--region", "-3,3,-4,1"])
        assert code == 3
        assert out["error"] == "triple must be a JSON object"

    def test_certificate_without_field_refused(self, capsys, tmp_path,
                                               fixtures_dir):
        doc = json.loads((fixtures_dir / "example_3_2.cert.json").read_text())
        del doc["astar"]
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(doc))
        code, out = run_json(capsys, [
            "kkt", "check", "--problem", "example_3_2", "--at", "0,0",
            "--cert", str(path), "--fixtures"])
        assert code == 3
        assert out["error"] == "certificate field astar is missing"

    def test_witness_without_field_refused(self, capsys, tmp_path,
                                           fixtures_dir):
        doc = json.loads((fixtures_dir / "example_2_2_witness.json")
                         .read_text())
        del doc["u"]
        path = tmp_path / "witness.json"
        path.write_text(json.dumps(doc))
        code, out = run_json(capsys, [
            "pseudoconvex", "--problem", "example_2_2", "--at", "0,0",
            "--type", "II", "--witness", str(path)])
        assert code == 3
        assert out["error"] == "witness field u is missing"

    @pytest.mark.parametrize("argv, f1", [
        (argv, f1) for f1 in ("max(1/x1 - 1/x1, x2)", "max(x2, 1/x1 - 1/x1)")
        for argv in (["subdiff", "--target", "f1", "--at", "1e-320,0"],
                     ["kkt", "search", "--at", "1e-320,0"])
    ], ids=["subdiff", "kkt-search", "subdiff-nan-last",
            "kkt-search-nan-last"])
    def test_nan_maximum_refused(self, capsys, tmp_path, fixtures_dir,
                                 argv, f1):
        """A max with a NaN branch (inf - inf at x1 = 1e-320) exits 3
        naming the node, wherever the branch stands; first, it exited 4
        with "tuple index out of range", last, it was dropped (exit 0)."""
        text = (fixtures_dir / "example_3_2.problem").read_text()
        head, rest = text.split("[objectives]")
        path = tmp_path / "nan.problem"
        path.write_text(head.replace(">=0, >=0, >=0", ">=0, >=0").replace(
            "value = 0, 1, 0", "value = 0, 1") + """[objectives]
f1 = "%s"
f2 = "x2^2"
[constraints]
g1 = "x1 - 5" with v in [-1, 1]
""" % f1)
        code, doc = run_json(capsys, argv + ["--problem", str(path)])
        assert code == 3
        assert doc["error"] == f"NaN maximum in {f1}"

    @pytest.mark.parametrize("fixture, error", [
        ("f1 @ 0,0,0 : {(-2,-1), (-2,1)}", "fixture point has dimension 3"),
        ("f1 @ 0,0 : {(-2,-1,0), (-2,1,0)}", "fixture set has dimension 3"),
    ], ids=["point", "set"])
    @pytest.mark.parametrize("argv", [
        ["subdiff", "--target", "f1", "--at", "0,0", "--fixtures"],
        ["kkt", "search", "--at", "0,0", "--fixtures"],
        ["duality", "strong", "--at", "0,0", "--fixtures"],
    ], ids=["subdiff", "kkt-search", "duality-strong"])
    def test_fixture_of_another_dimension_refused(self, capsys, tmp_path,
                                                  fixtures_dir, argv,
                                                  fixture, error):
        """A 3-D fixture in a 2-D problem is refused with its line; the
        point exited 4 ("operands could not be broadcast"), the set gave a
        3-D SET-COMPUTED or "zero_in_sum dimension mismatch"."""
        text = (fixtures_dir / "example_3_2.problem").read_text().replace(
            "f1 @ 0,0 : {(-2,-1), (-2,1)}", fixture)
        line = text.splitlines().index(f"fixture = {fixture}") + 1
        path = tmp_path / "fx.problem"
        path.write_text(text)
        code, doc = run_json(capsys, argv + ["--problem", str(path)])
        assert code == 3
        assert doc["error"] == f"{error}, the problem has dim 2 (line {line})"

    @pytest.mark.parametrize("rows, bad", [
        (("1,0 : 2", "1,0,0 : 2"), 2),
        (("1,0,0 : 2",), 1),
        (("1 : 2", "0,1 : 2"), 1),
    ], ids=["mixed", "lone-long", "short"])
    def test_halfspace_of_another_dimension_refused(self, capsys, tmp_path,
                                                    rows, bad):
        """A halfspace row whose length is not dim is refused with its
        line; rows of mixed lengths exited 4 ("setting an array element
        with a sequence"), a lone row of dim + 1 entries exited 3 with
        "ground-set dimension mismatch" and no line."""
        path = _problem(tmp_path, '"x1 - 1"')
        hs = [f"h{k} = {row}" for k, row in enumerate(rows, start=1)]
        text = Path(path).read_text().replace(
            "kind = whole", "\n".join(["kind = halfspaces", *hs]))
        Path(path).write_text(text)
        line = text.splitlines().index(hs[bad - 1]) + 1
        size = len(rows[bad - 1].split(":")[0].split(","))
        code, doc = run_json(capsys, ["feasible", "--problem", path,
                                      "--at", "0,0"])
        assert code == 3
        assert doc["error"] == (f"halfspace h{bad} has dimension {size}, "
                                f"the problem has dim 2 (line {line})")

    @pytest.mark.parametrize("objectives, g1, argv, key, value", [
        (("x1^2", "x2^2"), "max(1/x1 - 1/x1, x2 - 5)",
         ["feasible", "--at", "1e-320,0"], "phi", "nan"),
        (("-x1^400", "-x1^2"), "x2 - 5",
         ["efficiency", "--at", "0,0", "--kind", "weak", "--region",
          "-10,10,-1,1", "--res", "5"], "violation", ["-inf", -100.0]),
    ], ids=["nan", "-inf"])
    def test_reports_hold_no_nonfinite_token(self, capsys, tmp_path,
                                             objectives, g1, argv, key,
                                             value):
        """JSON has no NaN or Infinity: a non-finite number is written as
        the word float() reads back.  Both reports held a bare token."""
        path = tmp_path / "p.problem"
        path.write_text(f"""
[space]
dim = 2
[cone]
pattern = >=0, >=0
[theta]
value = 0, 0
[objectives]
f1 = "{objectives[0]}"
f2 = "{objectives[1]}"
[constraints]
g1 = "{g1}" with v in [-1, 1]
""")
        code = run_command(argv + ["--problem", str(path)])

        def refuse(token):
            raise ValueError(f"non-JSON token {token}")

        doc = json.loads(capsys.readouterr().out, parse_constant=refuse)
        assert code == 1 and doc["details"][key] == value

    def test_unknown_subdiff_target_refused(self, capsys):
        code, out = run_json(capsys, ["subdiff", "--problem", "example_3_2",
                                      "--target", "g9", "--at", "0,0"])
        assert code == 3
        assert out["error"] == "no constraint named 'g9'"

    def test_two_scenario_list_is_not_an_interval(self, capsys, tmp_path):
        # {0, 1} was read as the interval [0, 1]: one active scenario 1/2
        # and the set {(1/2, 0)}, marked exact
        path = _problem(tmp_path, '"v*x1 - (v - 1/2)^2" with v in {0, 1}')
        code, doc = run_json(capsys, ["feasible", "--problem", path,
                                      "--at", "0,0"])
        assert code == 0 and doc["details"]["phi"] == -0.25
        code, doc = run_json(capsys, ["subdiff", "--problem", path,
                                      "--target", "g1", "--at", "0,0"])
        assert code == 0
        details = doc["details"]
        assert details["rules"] == ["sup-rule(v=0)", "sup-rule(v=1)",
                                    "hull-collapse"]
        assert details["exactness"] == "outer-estimate"
        [segment] = details["set"]["components"]
        assert sorted(segment) == [[0.0, 0.0], [1.0, 0.0]]
        # zero lies in that segment, so the CQ fails at the origin
        code, doc = run_json(capsys, ["cq", "--problem", path, "--at", "0,0"])
        assert code == 1 and doc["verdict"] == "CQ-FAILS"

    def test_internal_fault_exits_four(self, capsys, monkeypatch):
        def fault(*args, **kwargs):
            raise IndexError("list index out of range")

        monkeypatch.setattr(cli, "compute_active_sets", fault)
        code, doc = run_json(capsys, ["feasible", "--problem", "example_3_2",
                                      "--at", "0,0"])
        assert code == 4
        assert doc == {"report_version": cli.REPORT_VERSION,
                       "error": "list index out of range"}

    def test_internal_value_error_exits_four(self, capsys, monkeypatch):
        # a ValueError raised by the program, not by refused input, is an
        # internal fault (D2): here the weight-count mismatch
        def short_weights(ystar, fs, *args):
            return direct_subdiff(ystar[:-1], fs, *args)

        monkeypatch.setattr(certify, "direct_subdiff", short_weights)
        code, doc = run_json(capsys, ["fuzzy", "--problem", "example_3_2",
                                      "--at", "0,0", "--ystar", "1,1,1",
                                      "--eta", "0.1"])
        assert code == 4
        assert doc["error"] == "weight/objective count mismatch"

        def unknown_kind(*args, **kwargs):
            raise ValueError("unknown node kind bogus")

        monkeypatch.setattr(cli, "compute_active_sets", unknown_kind)
        code, doc = run_json(capsys, ["feasible", "--problem", "example_3_2",
                                      "--at", "0,0"])
        assert code == 4 and doc["error"] == "unknown node kind bogus"

    @pytest.mark.parametrize("edit, error", [
        (("dim = 2", "dim = two"), "bad dim 'two'"),
        (("dim = 2", "dim = -1"), "dim must be >= 1"),
        (("kind = whole", "kind = box\nbounds = -1..1, -1"),
         "box bound must be 'lo..hi', got ' -1'"),
        (("[-1, 1]", "[-1, 0, 1]"), "scenario interval must be [lo, hi]"),
        (("[omega]", "[options]\nseed = x\n[omega]"), "bad option seed 'x'"),
        (("[omega]", "[options]\nfeas_tol = tiny\n[omega]"),
         "bad option feas_tol 'tiny'"),
        (("[omega]", "[options]\nvgrid = 1\n[omega]"),
         "option vgrid must be at least 2"),
        (("[omega]", "[options]\nfixture = f1 @ 0,0 : {(1,2), (3)}\n"
                     "[omega]"), "fixture vertices differ in length"),
        # refused by the loader, not by x1 being out of range 1..0
        (("dim = 2", "dim = 0"), "dim must be >= 1"),
    ])
    def test_malformed_problem_refused(self, capsys, tmp_path, edit, error):
        """Refused input exits 3 with the loader's own error, not through a
        stray ValueError."""
        path = _problem(tmp_path, '"v*x1 - 1" with v in [-1, 1]')
        text = Path(path).read_text()
        assert edit[0] in text
        Path(path).write_text(text.replace(*edit))
        code, doc = run_json(capsys, ["feasible", "--problem", path,
                                      "--at", "0,0"])
        assert code == 3 and doc["error"].startswith(error)

    @pytest.mark.parametrize("option, error", [
        ("kink_tol = -1", "option kink_tol must be a number >= 0"),
        ("kink_tol = nan", "option kink_tol must be a number >= 0"),
        ("feas_tol = nan", "option feas_tol must be a number"),
    ])
    @pytest.mark.parametrize("argv", [
        ["pseudoconvex", "--at", "0,0", "--type", "I", "--region",
         "-1,1,-1,1", "--grid", "3", "--y-res", "3"],
        ["cq", "--at", "0,0"],
    ], ids=["pseudoconvex", "cq"])
    def test_bad_tolerance_refused(self, capsys, tmp_path, fixtures_dir,
                                   option, error, argv):
        """A tolerance option that is NaN, or a negative kink_tol, exits 3
        naming the option; a negative kink_tol tied no max branch and
        exited 4."""
        text = (fixtures_dir / "example_3_2.problem").read_text()
        path = tmp_path / "p.problem"
        path.write_text(text.replace("[options]\n", f"[options]\n{option}\n"))
        code, doc = run_json(capsys, [argv[0], "--problem", str(path),
                                      *argv[1:]])
        assert code == 3 and doc["error"].startswith(error)

    def test_unknown_option_refused(self, capsys, tmp_path, fixtures_dir):
        """A misspelled [options] key exits 3 naming it and its line; it
        was dropped, and the option kept its default."""
        text = (fixtures_dir / "example_2_2.problem").read_text()
        path = tmp_path / "p.problem"
        path.write_text(text + "feas_tols = 0.5\n")
        code, doc = run_json(capsys, ["feasible", "--problem", str(path),
                                      "--at", "0,0"])
        line = len(text.splitlines()) + 1
        assert code == 3
        assert doc["error"] == f"unknown option 'feas_tols' (line {line})"

    def test_problem_file_read_once(self, capsys, monkeypatch):
        """The hash and the parse come from one read of the file."""
        reads = []
        read_bytes = Path.read_bytes
        monkeypatch.setattr(Path, "read_bytes",
                            lambda self: reads.append(self.name)
                            or read_bytes(self))
        monkeypatch.setattr(Path, "read_text", None)
        code, _ = run_json(capsys, ["feasible", "--problem", "example_3_2",
                                    "--at", "0,0"])
        assert code == 0 and reads == ["example_3_2.problem"]

    def test_crlf_problem_file(self, capsys, tmp_path, fixtures_dir):
        """Lines end at \\r\\n and \\r as at \\n; the hash is of the bytes."""
        data = (fixtures_dir / "example_3_2.problem").read_bytes()
        argv = ["kkt", "search", "--at", "0,0", "--problem"]
        _, want = run_json(capsys, argv + ["example_3_2"])
        for end in (b"\r\n", b"\r"):
            path = tmp_path / "crlf.problem"
            path.write_bytes(data.replace(b"\n", end))
            code, doc = run_json(capsys, argv + [str(path)])
            assert code == 0 and doc["details"] == want["details"]
            assert doc["problem"]["sha256"] == hashlib.sha256(
                path.read_bytes()).hexdigest()

    def test_problem_file_not_text_refused(self, capsys, tmp_path):
        path = tmp_path / "p.problem"
        path.write_bytes(b"\xff\xfe[space]")
        code, doc = run_json(capsys, ["feasible", "--problem", str(path),
                                      "--at", "0,0"])
        assert code == 3 and doc["error"].startswith("'utf-8' codec can't")

    @pytest.mark.parametrize("argv, error", [
        (["raster", "--problem", "example_3_2", "--region", "-1,1,-1",
          "--res", "3"], "--region has 3 entries, the problem needs 4"),
        (["efficiency", "--problem", "example_3_2", "--at", "0,0",
          "--kind", "weak-quasi", "--region", "-1,1"],
         "--region has 2 entries, the problem needs 4"),
        (["raster", "--problem", "example_3_2", "--region", "-1,1,-1,1",
          "--res", "-3"], "--res -3 is below 0"),
        (["pseudoconvex", "--problem", "example_2_2", "--at", "0,0",
          "--type", "I", "--region", "-1,1,-1,1", "--y-res", "0"],
         "--y-res 0 is below 1"),
        # options read alone but not together, and a --scenario that the
        # target cannot read: each was dropped without a word, with the
        # affirmative verdict of the rest (WITNESSED-FAILURE, NO-VIOLATION
        # from the --triples, SET-COMPUTED); weak duality with neither
        # --at nor --triples was refused before too
        *[(["pseudoconvex", "--problem", "example_2_2", "--at", "0,0",
            "--type", "II", "--witness", WITNESS, flag, value],
           f"{flag} is an option of the sweep, not of --witness")
          for flag, value in [("--region", "-1,1,-1,1"), ("--grid", "21"),
                              ("--y-res", "24")]],
        *[(["duality", "weak", "--problem", "example_3_5", "--region",
            "-3,3,-4,1", *given],
           "duality weak takes exactly one of --at and --triples")
          for given in [["--at", "0,0", "--triples", TRIPLE], []]],
        *[(["subdiff", "--problem", problem, "--target", target, "--at",
            "0,0", "--scenario", "0.5"],
           f"--scenario fixes v, and {target} does not use v")
          for problem, target in [("example_3_2", "f2"), ("V_FREE", "g1")]],
        # the fixture's worst-case set came back, and --scenario was dropped
        (["subdiff", "--problem", "example_3_2", "--target", "g1", "--at",
          "0,0", "--fixtures", "--scenario", "0.5"],
         "subdiff takes at most one of --scenario and --fixtures"),
        # VERIFIED, with fixtures asked for and none read
        (["pseudoconvex", "--problem", "example_2_2", "--at", "0,0",
          "--type", "I", "--region", "-2,2,-2,2", "--fixtures"],
         "--fixtures is an option of --witness, not of the sweep"),
    ])
    def test_bad_option_values_refused(self, capsys, tmp_path, argv, error):
        v_free = _problem(tmp_path, '"x1 - 1"')
        code, doc = run_json(capsys, [v_free if a == "V_FREE" else a
                                      for a in argv])
        assert code == 3 and doc["error"] == error

    @pytest.mark.parametrize("argv, error", [
        (["feasible", "--problem", "example_3_2", "--at", "0,0", "--tol",
          "nan"], "--tol nan must be a number >= 0 and <= 1"),
        (["kkt", "check", "--problem", "example_3_2", "--at", "0,0", "--cert",
          "{cert}", "--fixtures", "--tol", "nan"],
         "--tol nan must be a number >= 0 and <= 1"),
        (["fuzzy", "--problem", "example_3_2", "--at", "0,0", "--ystar",
          "0.3535,0,0.3535", "--eta", "inf"], "--eta inf exceeds its limit "
         "1e+09"),
        (["fuzzy", "--problem", "example_3_2", "--at", "0,0", "--ystar",
          "0.3535,0,0.3535", "--eta", "0.1", "--grid-n", "1"],
         "--grid-n 1 is below 2"),
        (["duality", "weak", "--problem", "example_3_5", "--at", "0,0",
          "--region", "-3,3,-4,1", "--samples", "0"], "--samples 0 is below 1"),
    ], ids=["feasible-tol-nan", "kkt-tol-nan", "eta-inf", "grid-n-1",
            "samples-0"])
    def test_option_outside_its_bounds_refused(self, capsys, fixtures_dir,
                                               argv, error):
        """A NaN --tol read as INFEASIBLE or INVALID (exit 1), --eta inf
        and --grid-n 1 exited 4 (the first with RuntimeWarnings on stderr),
        and --samples 0 was refused as "could not sample enough feasible
        points"."""
        cert = str(fixtures_dir / "example_3_2.cert.json")
        code = run_command([t.format(cert=cert) for t in argv])
        out, err = capsys.readouterr()
        assert code == 3 and json.loads(out)["error"] == error
        assert err == ""

    def test_negative_seed_refused(self, capsys, tmp_path):
        # duality weak exited 4: "expected non-negative integer"
        path = tmp_path / "p.problem"
        path.write_text(resolve_problem_path("example_3_5").read_text()
                        + "seed = -1\n")
        code, doc = run_json(capsys, ["duality", "weak", "--problem",
                                      str(path), "--at", "0,0", "--region",
                                      "-3,3,-4,1"])
        assert code == 3
        assert doc["error"].startswith("option seed must be at least 0")

    def test_closed_stdout_exits_141(self):
        """A reader that closes stdout before the report is written: exit
        141, not the negative verdict's 1, and no traceback.  The report
        (about 1 MB) is larger than a pipe's buffer."""
        src = Path(cli.__file__).resolve().parents[1]
        proc = subprocess.Popen(
            [sys.executable, "-c",
             "import sys; from robustkkt.cli import main; sys.exit(main())",
             "raster", "--problem", "example_3_2", "--region", "-5,1,-5,5",
             "--res", "201"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": str(src)})
        assert proc.stdout.read(10) == b'{\n  "comma'
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 141
        assert err == b""

    def test_usage_error_exit_three(self, capsys):
        assert run_command(["kkt", "check", "--problem", "example_3_2",
                            "--at", "0,0"]) == 3
        assert run_command(["feasible", "--problem", "no_such_file",
                            "--at", "0,0"]) == 3

    def test_spike_between_scenario_grid_points(self, capsys, tmp_path):
        # Golden-section search beats every grid value by more than the
        # active-set tolerance, so no grid cluster forms (was an IndexError,
        # exit 1 with a traceback).
        path = _problem(tmp_path, '"max(1 - 1000000*(v - 3/10000)^2, -1) '
                                  '+ 0*x1" with v in [-1, 1]')
        code, doc = run_json(capsys, ["feasible", "--problem", path,
                                      "--at", "0,0"])
        assert code == 1 and doc["verdict"] == "INFEASIBLE"
        assert doc["details"]["phi"] == pytest.approx(1.0, abs=1e-6)

    def test_expression_depth_limit(self, capsys, tmp_path):
        # Four tree levels per nesting level: the deepest trees the parser
        # accepts still get a verdict; one level more is a data error.
        for depth, want in ((MAX_NESTING - 1, 0), (MAX_NESTING, 3),
                            (250, 3)):
            deep = "x1 + 3 + 2/(" * depth + "x1 - 5" + ")^3" * depth
            path = _problem(tmp_path, f'"{deep} - 10"')
            code, doc = run_json(capsys, ["feasible", "--problem", path,
                                          "--at", "0,0"])
            assert code == want
            if want == 3:
                assert "nested deeper" in doc["error"]

    def test_byte_determinism(self, capsys):
        argv = ["kkt", "search", "--problem", "example_3_5", "--at", "0,0"]
        run_command(argv)
        first = capsys.readouterr().out
        run_command(argv)
        second = capsys.readouterr().out
        assert first == second

    def test_exit_matches_verdict(self, capsys):
        affirmative = {"FEASIBLE", "CERTIFICATE-FOUND", "CQ-HOLDS", "VALID",
                       "NO-COUNTEREXAMPLE", "NO-VIOLATION", "VERIFIED",
                       "RASTER-WRITTEN", "SET-COMPUTED", "WITNESS-FOUND"}
        cases = [
            (["feasible", "--problem", "example_3_2", "--at", "0,0"], 0),
            (["feasible", "--problem", "example_3_2", "--at", "1,0"], 1),
            (["cq", "--problem", "example_3_2", "--at", "0,0"], 0),
        ]
        for argv, expected in cases:
            code, doc = run_json(capsys, argv)
            assert code == expected
            assert (doc["verdict"] in affirmative) == (code == 0)

    @pytest.mark.parametrize("argv", [
        ["feasible", "--problem", "example_3_2"],
        ["cq", "--problem", "example_3_2"],
        ["pseudoconvex", "--problem", "example_2_2", "--type", "I",
         "--region", "-2,2,-2,2"],
    ], ids=["feasible", "cq", "pseudoconvex"])
    @pytest.mark.parametrize("at", ["0", "0,0,0"])
    def test_at_checked_against_dimension(self, capsys, argv, at):
        code, doc = run_json(capsys, argv + ["--at", at])
        assert code == 3
        assert doc["error"] == (f"--at has {at.count(',') + 1} entries, "
                                "the problem needs 2")

    def test_ystar_checked_against_objectives(self, capsys):
        code, doc = run_json(capsys, ["fuzzy", "--problem", "example_3_2",
                                      "--at", "0,0", "--ystar", "0.5,0.5",
                                      "--eta", "0.1"])
        assert code == 3
        assert doc["error"] == "--ystar has 2 entries, the problem needs 3"

    @pytest.mark.parametrize("field, value, error", [
        ("x", [0, 1, 0], "witness field x has 3 entries, the problem needs 2"),
        ("ystar", [0, 1],
         "witness field ystar has 2 entries, the problem needs 3"),
        ("u", [["0", "-2/5"], ["0", "0"]],
         "witness field u has 2 entries, the problem needs 3"),
        ("u", [["0", "-2/5", "0"], ["0", "0"], ["0", "1/2"]],
         "witness field u[0] has 3 entries, the problem needs 2"),
    ], ids=["x", "ystar", "u-rows", "u-row-length"])
    def test_witness_fields_checked(self, capsys, tmp_path, fixtures_dir,
                                    field, value, error):
        doc = json.loads((fixtures_dir / "example_2_2_witness.json")
                         .read_text())
        doc[field] = value
        path = tmp_path / "witness.json"
        path.write_text(json.dumps(doc))
        code, out = run_json(capsys, [
            "pseudoconvex", "--problem", "example_2_2", "--at", "0,0",
            "--type", "II", "--witness", str(path)])
        assert code == 3
        assert out["error"] == error

    @pytest.mark.parametrize("field, value, error", [
        ("u", [["-2", "1", "0"], ["0", "-3"], ["0", "-1"]],
         "certificate field u[0] has 3 entries, the problem needs 2"),
        ("u", [["-2", "1"], ["0", "-3"]],
         "certificate field u has 2 entries, the problem needs 3"),
        ("v", [["sqrt(2)", "0"], ["0"]],
         "certificate field v[1] has 1 entries, the problem needs 2"),
        ("ystar", ["0", "1"],
         "certificate field ystar has 2 entries, the problem needs 3"),
    ], ids=["u-row-length", "u-rows", "v-row-length", "ystar"])
    def test_certificate_fields_checked(self, capsys, tmp_path, fixtures_dir,
                                        field, value, error):
        doc = json.loads((fixtures_dir / "example_3_2.cert.json").read_text())
        doc[field] = value
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(doc))
        code, out = run_json(capsys, [
            "kkt", "check", "--problem", "example_3_2", "--at", "0,0",
            "--cert", str(path), "--fixtures"])
        assert code == 3
        assert out["error"] == error

    def test_timings_flag_adds_field(self, capsys):
        _, doc = run_json(capsys, ["--timings", "feasible",
                                   "--problem", "example_3_2", "--at", "0,0"])
        assert "timings_sec" in doc
        _, doc = run_json(capsys, ["feasible", "--problem", "example_3_2",
                                   "--at", "0,0"])
        assert "timings_sec" not in doc

    @pytest.mark.parametrize("value", [5, "00", {"x1": 0, "x2": 0}],
                             ids=["number", "string", "object"])
    def test_triple_field_not_a_list_refused(self, capsys, tmp_path, value):
        doc = {"z": value, "ystar": [0, 0, "1/33"], "mu": ["32/33", 0]}
        path = tmp_path / "t.json"
        path.write_text(json.dumps(doc))
        code, out = run_json(capsys, [
            "duality", "converse", "--problem", "example_3_5", "--triple",
            str(path), "--kind", "I", "--region", "-3,3,-4,1", "--res", "21"])
        assert code == 3
        assert out["error"] == "triple field z must be a list"

    def test_triples_file_not_a_list_refused(self, capsys, tmp_path):
        path = tmp_path / "t.json"
        path.write_text("7")
        code, out = run_json(capsys, [
            "duality", "weak", "--problem", "example_3_5", "--triples",
            str(path), "--kind", "I", "--region", "-3,3,-4,1",
            "--samples", "20"])
        assert code == 3
        assert out["error"] == "triples file must be a list"

    @pytest.mark.parametrize("field, value, error", [
        ("ystar", 1, "certificate field ystar must be a list"),
        ("u", 1, "certificate field u must be a list"),
        ("u", [1, 2, 3], "certificate field u[0] must be a list"),
        ("vbar", 0, "certificate field vbar must be a list"),
    ], ids=["ystar", "u", "u-row", "vbar"])
    def test_certificate_field_not_a_list_refused(self, capsys, tmp_path,
                                                  fixtures_dir, field, value,
                                                  error):
        doc = json.loads((fixtures_dir / "example_3_2.cert.json").read_text())
        doc[field] = value
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(doc))
        code, out = run_json(capsys, [
            "kkt", "check", "--problem", "example_3_2", "--at", "0,0",
            "--cert", str(path), "--fixtures"])
        assert code == 3
        assert out["error"] == error

    @pytest.mark.parametrize("field, value, error", [
        ("x", "00", "witness field x must be a list"),
        ("u", {"0": [0, 0]}, "witness field u must be a list"),
        ("u", ["00", "00", "00"], "witness field u[0] must be a list"),
    ], ids=["x", "u", "u-row"])
    def test_witness_field_not_a_list_refused(self, capsys, tmp_path,
                                              fixtures_dir, field, value,
                                              error):
        doc = json.loads((fixtures_dir / "example_2_2_witness.json")
                         .read_text())
        doc[field] = value
        path = tmp_path / "witness.json"
        path.write_text(json.dumps(doc))
        code, out = run_json(capsys, [
            "pseudoconvex", "--problem", "example_2_2", "--at", "0,0",
            "--type", "II", "--witness", str(path)])
        assert code == 3
        assert out["error"] == error

    def test_reciprocal_slope_overflow_is_a_data_error(self, capsys,
                                                       tmp_path):
        path = tmp_path / "p.problem"
        path.write_text('[space]\ndim = 1\n[cone]\npattern = >=0\n'
                        '[theta]\nvalue = 0\n[omega]\nkind = whole\n'
                        '[objectives]\nf1 = "1/x1"\n[constraints]\n')
        code, out = run_json(capsys, ["subdiff", "--problem", str(path),
                                      "--target", "f1", "--at", "1e-200"])
        assert code == 3
        assert out["error"] == "slope of 1/(x1) overflows"
        code, out = run_json(capsys, ["subdiff", "--problem", str(path),
                                      "--target", "f1", "--at", "1e-100"])
        assert code == 0
        assert out["details"]["set"]["components"] == [[[-1e200]]]

    @pytest.mark.parametrize("argv, error", [
        (["feasible", "--at", "0,0"], "v^400 overflows"),
        (["raster", "--region", "-1,1,-1,1", "--res", "3"],
         "v^400 overflows"),
        (["subdiff", "--target", "f1", "--at", "1e200,0"], "x1^2 overflows"),
    ], ids=["feasible", "raster", "subdiff"])
    def test_power_overflow_is_a_data_error(self, capsys, tmp_path,
                                            monkeypatch, argv, error):
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "p.problem"
        path.write_text('[space]\ndim = 2\n[cone]\npattern = >=0\n'
                        '[theta]\nvalue = 0\n[omega]\nkind = whole\n'
                        '[objectives]\nf1 = "x1^2"\n[constraints]\n'
                        'g1 = "v^400*x1 - 1" with v in [1, 10]\n')
        code, out = run_json(capsys, [argv[0], "--problem", str(path),
                                      *argv[1:]])
        assert code == 3
        assert out["error"] == error

    def test_grid_overflow_leaves_stderr_empty(self, capsys, recwarn,
                                               tmp_path, monkeypatch):
        # x1^400 overflows to inf on the grid: the cells are infeasible,
        # and numpy's overflow warning stays silent
        monkeypatch.chdir(tmp_path)
        path = _problem(tmp_path, '"x1^400 - 1"')
        assert run_command(["raster", "--problem", path, "--region",
                            "1e10,1e11,-1,1", "--res", "3"]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert json.loads(out)["details"]["feasible_cells"] == 0
        assert not [w for w in recwarn if w.category is RuntimeWarning]

    def test_constant_too_large_is_a_data_error(self, capsys, tmp_path):
        path = _problem(tmp_path, '"10^400*x1 - 1"')
        code, out = run_json(capsys, ["feasible", "--problem", path,
                                      "--at", "0,0"])
        assert code == 3
        assert out["error"].startswith(
            "constraint g1: constant too large for a float")

    def test_literal_too_large_is_a_data_error(self, capsys):
        code, out = run_json(capsys, ["feasible", "--problem", "example_3_2",
                                      "--at", "1e400,0"])
        assert code == 3
        assert out["error"] == ("bad numeric literal '1e400': "
                                "constant too large for a float")

    @pytest.mark.parametrize("literal", ["1e5000000", "-1e5000000",
                                         "1e-5000000", "0.1e1002"])
    def test_huge_exponent_refused_at_once(self, capsys, literal):
        """An exact Fraction of 1e5000000 takes seconds to build; the
        exponent is refused before it is."""
        start = time.perf_counter()
        code, out = run_json(capsys, ["feasible", "--problem", "example_3_2",
                                      "--at", f"{literal},0"])
        assert time.perf_counter() - start < 0.5
        assert code == 3
        assert out["error"].startswith(f"bad numeric literal {literal!r}: ")
        assert "exponent of magnitude above 1000" in out["error"]

    def test_huge_exponent_in_a_constraint(self, capsys, tmp_path):
        path = _problem(tmp_path, '"1e5000000*x1 - 1"')
        start = time.perf_counter()
        code, out = run_json(capsys, ["feasible", "--problem", path,
                                      "--at", "0,0"])
        assert time.perf_counter() - start < 0.5
        assert code == 3
        assert out["error"].startswith("constraint g1: literal 1e5000000 ")

    def test_largest_exponents_still_parse(self, capsys, tmp_path):
        assert parse_scalar("1e-1000") == 0.0
        assert parse_scalar("-1e-1000") == 0.0
        assert parse_scalar("0.00001e-995") == 0.0
        assert parse_scalar("1.7976931348623157e308") == 1.7976931348623157e308
        assert parse_scalar("10000e-1004") == parse_scalar("1e-1000")
        assert parse_scalar("0e9999999") == 0.0
        path = _problem(tmp_path, '"1e-1000*x1 + 1e308*x2 - 1"')
        code, out = run_json(capsys, ["feasible", "--problem", path,
                                      "--at", "1e-1000,0"])
        assert code == 0 and out["details"]["point"] == [0.0, 0.0]


LIMITED = [
    ("res", "raster", ["raster", "--problem", "example_3_2",
                       "--region", "-5,1,-5,5", "--res"]),
    ("res", "classify_point", ["efficiency", "--problem", "example_3_2",
                               "--at", "0,0", "--kind", "weak-quasi",
                               "--region", "-5,1,-5,5", "--res"]),
    ("grid", "pseudoconvex_test", ["pseudoconvex", "--problem", "example_2_2",
                                   "--at", "0,0", "--type", "I",
                                   "--region", "-2,2,-2,2", "--grid"]),
    ("y_res", "pseudoconvex_test", ["pseudoconvex", "--problem",
                                    "example_2_2", "--at", "0,0", "--type",
                                    "I", "--region", "-2,2,-2,2", "--y-res"]),
    ("samples", "generate_feasible_samples", [
        "duality", "weak", "--problem", "example_3_5", "--at", "0,0",
        "--region", "-3,3,-4,1", "--samples"]),
    ("grid_n", "fuzzy_kkt_demo", ["fuzzy", "--problem", "example_3_2",
                                  "--at", "0,0", "--ystar", "0.3535,0,0.3535",
                                  "--eta", "0.1", "--grid-n"]),
]


def _most(name):
    """The limit in cli.TABLE of a command-line option, named as its
    argparse dest (y_res), or of a problem-file option or section."""
    return next(row.most for row in cli.TABLE
                if row.name in (name, "--" + name.replace("_", "-")))


class TestSizeLimits:
    def test_limits_admit_documented_values(self):
        used = {"res": 401, "grid": 21, "y_res": 24, "samples": 1000,
                "grid_n": 81}
        for name, value in used.items():
            assert value <= _most(name)
        assert 1001 <= _most("vgrid")
        assert 64 <= _most("ball_facets")
        # the bundled three-objective sweep: a 24^2-point y*-grid, 21^2 samples
        assert 24 ** 2 * 21 ** 2 <= robustfeas.CELLS_LIMIT

    @pytest.mark.parametrize("name,target,argv", LIMITED,
                             ids=[f"{n}-{a[0]}" for n, _, a in LIMITED])
    def test_option_over_limit(self, capsys, monkeypatch, name, target,
                               argv):
        # the stub stands in for the allocation: a value at the limit
        # reaches it, one above is refused first
        monkeypatch.setattr(cli, target, _reach)
        bound = _most(name)
        with pytest.raises(Reached):
            run_command(argv + [str(bound)])
        capsys.readouterr()
        code, doc = run_json(capsys, argv + [str(bound + 1)])
        assert code == 3
        assert "--" + name.replace("_", "-") in doc["error"]
        assert "limit" in doc["error"]

    @pytest.mark.parametrize("key", ["vgrid", "ball_facets"])
    def test_problem_option_over_limit(self, capsys, tmp_path, key):
        # the entry replaces the file's own: a key may not repeat
        base = re.sub(rf"(?m)^{key} = .*\n", "", resolve_problem_path(
            "example_3_2").read_text())
        bound = _most(key)
        path = tmp_path / "big.problem"
        path.write_text(base + f"{key} = {bound}\n")
        assert getattr(load_problem(path), key) == bound
        path.write_text(base + f"{key} = {bound + 1}\n")
        with pytest.raises(LoadError, match=f"{key} exceeds its limit"):
            load_problem(path)
        code, doc = run_json(capsys, ["feasible", "--problem", str(path),
                                      "--at", "0,0"])
        assert code == 3 and key in doc["error"]

    @pytest.mark.parametrize("section", ["objectives", "constraints"])
    def test_problem_count_over_limit(self, capsys, monkeypatch, tmp_path,
                                      section):
        def problem(count):
            p = count if section == "objectives" else 1
            n = count if section == "constraints" else 1
            path = tmp_path / f"{section}{count}.problem"
            path.write_text(
                "[space]\ndim = 2\n[cone]\npattern = "
                + ", ".join([">=0"] * p) + "\n[theta]\nvalue = "
                + ", ".join(["0"] * p) + "\n[omega]\nkind = whole\n"
                + "[objectives]\n"
                + "".join(f'f{j} = "x1 + {j}*x2"\n' for j in range(p))
                + "[constraints]\n"
                + "".join(f'g{j} = "x1 - {j}"\n' for j in range(n)))
            return str(path)

        bound = _most(section)
        spec = load_problem(problem(bound))
        assert len(getattr(spec, section)) == bound
        # the stub stands in for parsing: at the limit the loader reaches
        # it, above the limit it refuses first
        monkeypatch.setattr(cli, "parse_expr", _reach)
        with pytest.raises(Reached):
            load_problem(problem(bound))
        code, doc = run_json(capsys, ["feasible", "--problem",
                                      problem(bound + 1), "--at", "0,0"])
        assert code == 3
        assert doc["error"] == (f"{bound + 1} {section} exceed the limit "
                                f"{bound}")

    def test_premise_matrix_over_limit(self, capsys, monkeypatch, spec22):
        # example_2_2 has three objectives, so its y*-grid has y_res^2 points
        y_res = _most("y_res")
        assert ystar_grid_size(spec22, 5) == len(ystar_grid(spec22, 5)) == 25
        grid = math.isqrt(robustfeas.CELLS_LIMIT // y_res ** 2)
        assert grid + 1 <= _most("grid")
        # the stub stands in for the sweep's first allocation
        monkeypatch.setattr(certify, "ystar_grid", _reach)
        argv = ["pseudoconvex", "--problem", "example_2_2", "--at", "0,0",
                "--type", "I", "--region", "-2,2,-2,2", "--y-res", str(y_res),
                "--grid"]
        with pytest.raises(Reached):
            run_command(argv + [str(grid)])
        capsys.readouterr()
        for over in (grid + 1, _most("grid")):
            code, doc = run_json(capsys, argv + [str(over)])
            assert code == 3
            assert "premise cells" in doc["error"] and "limit" in doc["error"]
            # the Python API has the same bound
            with pytest.raises(certify.CertifyError, match="premise cells"):
                certify.pseudoconvex_test(spec22, [0, 0], "I", [-2, 2, -2, 2],
                                          over, y_res)

    def _kinks(self, tmp_path, counts):
        """A problem in ten coordinates without constraints (its dual ball
        the l1 ball), objective j the sum of -abs(x_k) for k up to
        counts[j]: at the origin, in limiting mode, 2^counts[j]
        components."""
        path = tmp_path / "kinks.problem"
        path.write_text(
            "[space]\ndim = 10\n[cone]\npattern = "
            + ", ".join([">=0"] * len(counts)) + "\n[theta]\nvalue = "
            + ", ".join(["0"] * len(counts)) + "\n[omega]\nkind = whole\n"
            "[objectives]\n" + "".join(
                f'f{j} = "' + " ".join(f"- abs(x{k})" for k in
                                       range(1, c + 1)) + '"\n'
                for j, c in enumerate(counts)) + "[options]\nnorm = linf\n")
        return str(path)

    def test_selections_over_limit(self, capsys, monkeypatch, tmp_path):
        """kkt search tries one LP per choice of a component of each
        objective's set: three objectives of 2^10 components would be 2^30
        exact LPs.  At the limit the search reaches its first LP; above it,
        it is refused before any, naming the count and the limit, as
        zero_in_sum refuses its parts."""
        from robustkkt import lp, setcalc

        limit = setcalc.SELECTIONS_LIMIT
        assert limit == 2 ** 12
        monkeypatch.setattr(lp.LPBuilder, "solve", _reach)
        argv = ["kkt", "search", "--at", ",".join(["0"] * 10), "--problem"]
        with pytest.raises(Reached):
            run_command(argv + [self._kinks(tmp_path, [10, 2])])
        capsys.readouterr()
        for counts, count in (([10, 3], 2 ** 13), ([10, 10, 10], 2 ** 30)):
            code, doc = run_json(capsys, argv + [self._kinks(tmp_path,
                                                             counts)])
            assert code == 3
            assert doc["error"] == (f"{count} component selections, over "
                                    f"the limit {limit}")
        pair = setcalc.PolytopeSet([setcalc.Polytope([[0.0]]),
                                    setcalc.Polytope([[1.0]])])
        cone = np.zeros((0, 1))
        with pytest.raises(Reached):
            setcalc.zero_in_sum([pair] * 12, cone)
        with pytest.raises(setcalc.SetCalcError, match=f"{2 ** 13} component "
                           f"selections, over the limit {limit}"):
            setcalc.zero_in_sum([pair] * 13, cone)

    def test_search_selections_raise_certify_error(self, tmp_path):
        """From the library, search_kkt refuses too many selections with
        its own CertifyError, as zero_in_sum does with SetCalcError."""
        spec = load_problem(self._kinks(tmp_path, [10, 3]))
        with pytest.raises(certify.CertifyError, match=f"{2 ** 13} component "
                           f"selections, over the limit"):
            certify.search_kkt(spec, np.zeros(10))

    def test_fuzzy_selections_refused(self, capsys, monkeypatch):
        """fuzzy tries one LP per component of the scalarized set, within
        the same limit: with the limit at 1, the README fuzzy command,
        whose set at x_eta = (0, 0) has two components, is refused with
        SetCalcError from the library and exit 3 from the command line."""
        from robustkkt import setcalc

        spec = load_problem("example_3_2")
        ystar = np.array([0.3535, 0.0, 0.3535])
        assert direct_subdiff(ystar, spec.objectives, np.zeros(2),
                              "limiting").set.ncomponents == 2
        assert certify.fuzzy_kkt_demo(spec, np.zeros(2), ystar,
                                      0.1).witness is not None
        monkeypatch.setattr(setcalc, "SELECTIONS_LIMIT", 1)
        with pytest.raises(setcalc.SetCalcError, match="2 component "
                           "selections, over the limit 1"):
            certify.fuzzy_kkt_demo(spec, np.zeros(2), ystar, 0.1)
        code, doc = run_json(capsys, [
            "fuzzy", "--problem", "example_3_2", "--at", "0,0", "--ystar",
            "0.3535,0,0.3535", "--eta", "0.1"])
        assert code == 3
        assert doc["error"] == "2 component selections, over the limit 1"

    def test_dual_selections_refused_before_any_sum(self, capsys,
                                                    monkeypatch, tmp_path):
        """Dual feasibility sums the y*-scaled objective sets before its
        zero-in-sum LPs: two objectives of 2^7 components each would build
        16,384 polytopes and only then be refused.  Over the limit it is
        refused before the first Minkowski sum; at the limit, or with an
        objective scaled by 0 (one component, as scale makes it), it
        reaches the sum."""
        from robustkkt import setcalc, verify

        monkeypatch.setattr(verify, "minkowski_sum", _reach)
        triple = tmp_path / "t.json"

        def converse(counts, ystar):
            triple.write_text(json.dumps(
                {"z": [0] * 10, "ystar": ystar, "mu": []}))
            return run_json(capsys, [
                "duality", "converse", "--problem",
                self._kinks(tmp_path, counts), "--triple", str(triple),
                "--kind", "I", "--region", ",".join(["-1,1"] * 10)])

        code, doc = converse([7, 7], [1, 1])
        assert code == 3
        assert doc["error"] == (f"{2 ** 14} component selections, over the "
                                f"limit {setcalc.SELECTIONS_LIMIT}")
        for counts, ystar in (([6, 6], [1, 1]), ([7, 7], [1, 0])):
            with pytest.raises(Reached):
                converse(counts, ystar)
            capsys.readouterr()


# ---------------------------------------------------------------------------
# Every verb against every command-line option, generated from cli.TABLE
# ---------------------------------------------------------------------------

FLAGS = list(dict.fromkeys(row.name for row in cli.TABLE if row.kind == "cli"))
SWITCHES = {row.name for row in cli.TABLE if row.parse is bool}
READS = {(verb, row.name) for row in cli.TABLE if row.kind == "cli"
         for verb in verbs(row)}
# the files and names a text option is given
TEXT = {"--out": "out.csv", "--target": "g2", "--cert": CERT,
        "--witness": WITNESS, "--triple": TRIPLE, "--triples": "triples.json"}
# options a verb reads, but not together: the option given drops the
# others from the verb's base argv (test_bad_option_values_refused
# refuses the pairs)
APART = {("pseudoconvex", "--witness"): ("--region", "--grid", "--y-res"),
         ("duality weak", "--triples"): ("--at",)}
# options a verb reads only beside another: the base argv they are given in
# place of the verb's
VIA = {("pseudoconvex", "--fixtures"): [
    "pseudoconvex", "--problem", "example_2_2", "--at", "0,0", "--type",
    "II", "--witness", WITNESS]}


def _base(verb: str, flag: str) -> list[str]:
    return VIA.get((verb, flag)) or BASE[verb or "feasible"][0]


def _value(verb: str, flag: str, base: list[str]) -> tuple[list[str], object]:
    """The tokens that give flag a value other than the verb's default
    and its base argv's, and the value the parser reads from them."""
    row = next(r for r in cli.ROWS[verb] if r.name == flag)
    if row.parse is bool:
        return [flag], True
    if row.size:
        text = {"d": "0.5,0", "p": "0.5,0,0.5", "2d": "-1,1,-1,1"}[
            row.size[0]]
        return [f"{flag}={text}"], np.array(
            [float(t) for t in text.split(",")])
    if isinstance(row.parse, tuple):
        given = base[base.index(flag) + 1] if flag in base else None
        text = next(w for w in row.parse if w not in (row.default, given))
    elif row.parse:
        text = "3" if row.parse is cli._integer else "0.5"
    else:
        text = base[base.index(flag) + 1] if flag == "--problem" \
            else TEXT[flag]
        return [f"{flag}={text}"], text
    return [f"{flag}={text}"], cli._read(row, text)


class _Loaded:
    """The spec load_problem returned.  With --fixtures the library gets
    that spec, fixtures and all; without, a copy that holds none."""
    spec = None


def _same(a, value) -> bool:
    if isinstance(value, _Loaded):
        return a is value.spec
    if isinstance(value, np.ndarray):
        return isinstance(a, np.ndarray) and a.shape == value.shape \
            and bool(np.all(a == value))
    return type(a) is type(value) and a == value


def _spy_calls(monkeypatch, value):
    """Stand a spy in for every library function cli calls, and for Path:
    it raises Reached when an argument is value, and else calls through."""
    def spy(fn):
        def call(*args, **kwargs):
            if any(_same(a, value) for a in (*args, *kwargs.values())):
                raise Reached
            return fn(*args, **kwargs)
        return call

    for name, obj in vars(cli).items():
        if name == "Path" or inspect.isfunction(obj) and obj.__module__ \
                .startswith("robustkkt.") and obj.__module__ != cli.__name__:
            monkeypatch.setattr(cli, name, spy(obj))


def _without(argv: list[str], flags) -> list[str]:
    """argv with each of flags and its value taken out."""
    out = list(argv)
    for flag in flags:
        if flag in out:
            at = out.index(flag)
            del out[at:at + (1 if flag in SWITCHES else 2)]
    return out


def _report(capsys, argv) -> dict:
    run_command(argv)
    doc = json.loads(capsys.readouterr().out)
    doc.pop("config", None)
    return doc


def _listed_argv(verb: str, flag: str) -> tuple[list[str], object]:
    """The verb's base argv with flag given a value (before the command
    for verb ""), and the value the parser reads."""
    base = _base(verb, flag)
    tokens, value = _value(verb, flag, base)
    argv = _without(base, [flag, *APART.get((verb, flag), ())])
    return (tokens + argv if not verb else argv + tokens), value


LISTED_IDS = [f"{verb or 'before-the-command'}-{flag}"
              for verb, flag in sorted(READS)]


@pytest.mark.parametrize("verb, flag", sorted(READS), ids=LISTED_IDS)
def test_listed_flag_is_read(capsys, monkeypatch, tmp_path, verb, flag):
    """A flag the verb lists reaches it: a spy on the library calls (or
    on Path, for a file) sees its value, or else the report, config
    aside, differs from the report without it."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "triples.json").write_text(
        "[" + Path(TRIPLE).read_text() + "]")
    base = _base(verb, flag)
    argv, value = _listed_argv(verb, flag)
    if flag == "--fixtures":  # read through the spec the library receives
        value = _Loaded()
        load = cli.load_problem
        monkeypatch.setattr(cli, "load_problem", lambda data: setattr(
            value, "spec", load(data)) or value.spec)
    _spy_calls(monkeypatch, value)
    try:
        seen = _report(capsys, argv)
    except Reached:
        return
    monkeypatch.undo()
    monkeypatch.chdir(tmp_path)
    assert seen != _report(capsys, _without(base, APART.get((verb, flag),
                                                            ())))


@pytest.mark.parametrize("verb", sorted(v for v, f in READS
                                         if f == "--fixtures"))
def test_no_fixture_reaches_the_library_unasked(capsys, monkeypatch,
                                               tmp_path, verb):
    """Without --fixtures, no library call receives the spec load_problem
    returned, and every spec one receives holds no fixture set."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "triples.json").write_text(
        "[" + Path(TRIPLE).read_text() + "]")
    loaded, specs = _Loaded(), []
    load = cli.load_problem
    monkeypatch.setattr(cli, "load_problem", lambda data: setattr(
        loaded, "spec", load(data)) or loaded.spec)
    _spy_calls(monkeypatch, loaded)
    dispatch = cli._dispatch
    monkeypatch.setattr(cli, "_dispatch", lambda args, spec: (
        specs.append(spec) or dispatch(args, spec)))
    _report(capsys, _without(_base(verb, "--fixtures"), ["--fixtures"]))
    assert loaded.spec.fixtures or verb == "pseudoconvex"
    assert [s.fixtures for s in specs] == [()]


UNREAD = [(verb, flag) for verb in cli.COMMANDS for flag in FLAGS
          if (verb, flag) not in READS]


def _unread_argv(command: str, flag: str) -> list[str]:
    row = next(r for r in cli.TABLE if r.name == flag)
    return BASE[command][0] + [flag, *([] if row.parse is bool else ["1"])]


@pytest.mark.parametrize("command, flag", UNREAD)
def test_unread_flag_is_refused(capsys, command, flag):
    """A flag the verb does not list is a usage error (exit 3, naming the
    flag); without it, the config of a verb that does not read --mode or
    --fixtures echoes the flag's default."""
    argv = BASE[command][0]
    assert run_command(_unread_argv(command, flag)) == 3
    assert flag in capsys.readouterr().err
    if flag in ("--mode", "--fixtures"):
        code, doc = run_json(capsys, argv)
        assert code in (0, 1, 2)
        assert doc["config"][flag[2:]] == {"--mode": "limiting",
                                           "--fixtures": False}[flag]



def _parsed(capsys, parser, argv):
    """parser's namespace for argv, its exit code and stderr, or the
    message of a word that a row refused."""
    try:
        return vars(parser.parse_args(argv))
    except SystemExit as exc:
        return exc.code, capsys.readouterr().err
    except LoadError as exc:
        return str(exc)


PARSE_CASES = [*(_listed_argv(verb, flag)[0] for verb, flag in sorted(READS)),
               *(_unread_argv(command, flag) for command, flag in UNREAD),
               *(word_argv(name, verb) for name, verb in WORD_CASES)]
PARSE_IDS = [*(f"listed-{i}" for i in LISTED_IDS),
             *(f"unread-{c}{f}" for c, f in UNREAD),
             *(f"word-{i}" for i in WORD_IDS)]


@pytest.mark.parametrize("argv", PARSE_CASES, ids=PARSE_IDS)
def test_verb_parser_is_the_full_parser(capsys, argv):
    """run_command builds only the verb's parser: on each command line of
    test_listed_flag_is_read, test_unread_flag_is_refused and
    test_word_not_allowed it gives what the full parser gives.  An
    unknown verb of kkt or duality builds the full parser."""
    argv = cli._merge_negative_values(argv)
    verb = cli._argv_verb(argv)
    assert (verb is None) == (argv[1] == "bogus")
    full = _parsed(capsys, cli.build_parser(), argv)
    assert _parsed(capsys, cli.build_parser(verb), argv) == full


def _subparsers(parser):
    return next(a.choices for a in parser._actions
                if isinstance(a, argparse._SubParsersAction))


@pytest.mark.parametrize("verb", cli.COMMANDS)
def test_verb_parser_texts(verb):
    """The usage of the program, and of kkt or duality, and the verb's own
    help: the same texts as the full parser's."""
    parsers = [cli.build_parser(verb), cli.build_parser()]
    assert parsers[0] is not parsers[1]
    for word in verb.split():
        assert parsers[0].format_usage() == parsers[1].format_usage()
        parsers = [_subparsers(p)[word] for p in parsers]
    assert parsers[0].format_help() == parsers[1].format_help()


@pytest.mark.parametrize("argv, verb", [
    (["feasible", "--problem", "p"], "feasible"),
    (["--timings", "--timings", "kkt", "search"], "kkt search"),
    (["duality", "strong", "--at", "0,0"], "duality strong"),
    (["kkt", "--timings", "check"], None),
    (["--problem", "p", "feasible"], None),
    (["-5", "feasible"], None),
    (["feasible", "--problem", "p", "-h"], None),
    (["--help", "cq"], None),
    (["duality"], None),
    ([], None),
])
def test_argv_verb(argv, verb):
    assert cli._argv_verb(argv) == verb
