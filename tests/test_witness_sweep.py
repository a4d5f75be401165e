"""The sweep and ``--witness`` state one pseudo-convexity test.

Both read the premise through ``certify._premise``, and in the plane both
read the witness optimum from ``certify._SweepGeometry``, so where the
witness check proves a failure at a sample x and a subgradient u of the
objective, the sweep cannot verify x.  Hypothesis plants one-objective
planar problems whose kinks ``+-abs(a.x)`` are active at x-bar = 0, with
theta set so that the premise value at one grid sample lies in
(-1e-7, 0), linear constraint walls through x-bar, and each norm.  The
file of the first such case found, where the sweep verified x = (-1, 0)
while the witness check proved a failure there, is pinned as it stands.
Off the plane the witness check is still one LP.
"""

from __future__ import annotations

import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from robustkkt import certify
from robustkkt.certify import pseudoconvex_test, witnessed_failure_check
from robustkkt.cli import load_problem, run_command
from robustkkt.funcdsl import eval_expr, parse_expr
from robustkkt.lp import LPBuilder
from robustkkt.robustfeas import ProblemSpec, UncertainConstraint
from robustkkt.setcalc import ConeSpec, OmegaSpec, norm_value
from robustkkt.subdiff import objective_set

PLANTED = """[space]
dim = 2

[cone]
pattern = >=0

[theta]
value = 0.99999995

[omega]
kind = whole

[objectives]
f1 = "-abs(x1)"

[constraints]
g1 = "x1"

[options]
norm = l2
"""
WITNESS = {"x": [-1, 0], "ystar": [1], "u": [[-1, 0]]}
VERIFIED = ("VERIFIED-CANDIDATE-W", "VERIFIED-COMMON-W")


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run_command(argv)
    return code, json.loads(out.getvalue())


@pytest.fixture
def planted(tmp_path):
    (tmp_path / "planted.problem").write_text(PLANTED)
    (tmp_path / "witness.json").write_text(json.dumps(WITNESS))
    return tmp_path


def test_planted_witness_fails(planted):
    code, doc = _run(["pseudoconvex", "--problem",
                      str(planted / "planted.problem"), "--at", "0,0",
                      "--type", "I", "--witness",
                      str(planted / "witness.json")])
    assert (code, doc["verdict"]) == (1, "WITNESSED-FAILURE")


def test_planted_sweep_not_verified_at_the_witness(planted):
    """The premise value at x = (-1, 0) is -5e-8, inside the strict
    premise: the sweep must not verify that sample."""
    code, doc = _run(["pseudoconvex", "--problem",
                      str(planted / "planted.problem"), "--at", "0,0",
                      "--type", "I", "--region", "-1,1,-1,1", "--grid", "3"])
    assert (code, doc["verdict"]) == (2, "INCONCLUSIVE")
    assert doc["details"]["counts"] == {"INCONCLUSIVE": 2,
                                        "VERIFIED-CANDIDATE-W": 7}
    spec = load_problem(PLANTED.encode())
    rep = pseudoconvex_test(spec, np.zeros(2), "I", (-1, 1, -1, 1), grid=3)
    assert rep.verdicts[1] == "INCONCLUSIVE"  # the sample (-1, 0)


def test_one_premise(monkeypatch, planted):
    """The sweep and the witness check both ask _premise, whose type I
    threshold is -1e-12, not the conclusion's EPS_STRICT."""
    assert certify._premise("I", -5e-8, 1.0)
    assert not certify._premise("I", -1e-12, 1.0)
    assert certify._premise("II", 1e-12, 1.0)
    assert not certify._premise("II", -1.0, 1e-12)
    calls = []
    premise = certify._premise
    monkeypatch.setattr(certify, "_premise", lambda *a: calls.append(
        a[0]) or premise(*a))
    spec = load_problem(PLANTED.encode())
    pseudoconvex_test(spec, np.zeros(2), "I", (-1, 1, -1, 1), grid=3)
    witnessed_failure_check(spec, np.zeros(2), "I", WITNESS, "limiting")
    assert calls == ["I", "I"]


def test_planar_witness_solves_no_lp(monkeypatch, planted):
    def solve(self):
        raise AssertionError("an LP was solved")

    monkeypatch.setattr(LPBuilder, "solve", solve)
    rep = witnessed_failure_check(load_problem(PLANTED.encode()),
                                  np.zeros(2), "I", WITNESS, "limiting")
    assert rep.verdicts.tolist() == ["WITNESSED-FAILURE"]
    assert rep.lp_optimum == 0.99999995
    rep = witnessed_failure_check(
        load_problem("example_2_2"), np.zeros(2), "II",
        {"x": [0.0, 1.0], "ystar": [0.0, 1.0, 0.0],
         "u": [[0.0, -0.4], [0.0, 0.0], [0.0, 0.5]]}, "limiting")
    assert rep.verdicts.tolist() == ["WITNESSED-FAILURE"]
    assert rep.lp_optimum.hex() == (0.0).hex()


def _spec(dim, objective, constraints=(), theta=0.5, norm="l2"):
    return ProblemSpec(
        dim=dim, objective_names=("f1",),
        objectives=(parse_expr(objective, dim),),
        constraints=tuple(UncertainConstraint(f"g{i + 1}", parse_expr(c, dim))
                          for i, c in enumerate(constraints)),
        cone=ConeSpec(pattern=(1,)), omega=OmegaSpec.whole(dim),
        theta=np.array([theta]), norm=norm)


@pytest.mark.parametrize("dim, objective, constraints, x, u, want", [
    (1, "-abs(x1)", ("x1",), [-1.0], [-1.0], 0.5),
    (1, "-abs(x1)", (), [2.0], [1.0], -1.0),
    (3, "-abs(x1) + x3", ("x1 + x2",), [-1.0, 0.5, 0.25], [1.0, 0.0, 1.0],
     -1.0473632127324848),
    (3, "-abs(x1) + x3", ("x1 + x2",), [-1.0, 0.5, 0.25], [-1.0, 0.0, 1.0],
     -0.7500536936628154),
])
def test_witness_off_the_plane_is_one_lp(monkeypatch, dim, objective,
                                         constraints, x, u, want):
    """Off the plane the witness check solves its LP over the primal
    ball's polytope, with the optimum it gave before the plane read the
    sweep's margin, bit for bit."""
    solved = []
    solve = LPBuilder.solve
    monkeypatch.setattr(LPBuilder, "solve", lambda self: solved.append(
        self) or solve(self))
    rep = witnessed_failure_check(_spec(dim, objective, constraints),
                                  np.zeros(dim), "II",
                                  {"x": x, "ystar": [1.0], "u": [u]},
                                  "limiting")
    assert solved  # the memberships of u off the plane are LPs too
    assert rep.lp_optimum.hex() == want.hex()


_INT = st.integers(-3, 3)


@settings(max_examples=60, deadline=None)
@given(norm=st.sampled_from(["l1", "l2", "linf"]),
       ptype=st.sampled_from(["I", "II"]),
       mode=st.sampled_from(["limiting", "hull"]),
       kinks=st.lists(st.tuples(st.sampled_from([1, -1]), _INT, _INT),
                      min_size=1, max_size=3),
       slope=st.tuples(_INT, _INT),
       walls=st.lists(st.tuples(_INT, _INT), max_size=2),
       pick=st.integers(0, 7),
       delta=st.floats(1e-10, 9e-8))
@example(norm="l2", ptype="I", mode="limiting", kinks=[(-1, 1, 0)],
         slope=(0, 0), walls=[(1, 0)], pick=1, delta=5e-8)
def test_no_verified_sample_has_a_witnessed_failure(
        norm, ptype, mode, kinks, slope, walls, pick, delta):
    """Wherever witnessed_failure_check proves a failure at a grid sample
    x and a vertex u of the objective's set, the sweep's verdict at x is
    not VERIFIED-*."""
    text = " + ".join([f"({s})*abs(({a})*x1 + ({b})*x2)"
                       for s, a, b in kinks]
                      + [f"({slope[0]})*x1 + ({slope[1]})*x2"])
    xbar = np.zeros(2)
    g1, g2 = np.meshgrid(np.linspace(-1, 1, 3), np.linspace(-1, 1, 3),
                         indexing="ij")
    samples = np.column_stack([g1.ravel(), g2.ravel()])
    # theta puts the premise value at -delta at one sample where
    # f < f(xbar) = 0
    f = [eval_expr(parse_expr(text, 2), x) for x in samples]
    below = [k for k in range(9) if f[k] < -1e-6]
    if not below:
        return
    target = below[pick % len(below)]
    theta = (-f[target] - delta) / norm_value(norm, samples[target])
    spec = _spec(2, text, [f"({a})*x1 + ({b})*x2" for a, b in walls],
                 theta, norm)
    verdicts = pseudoconvex_test(spec, xbar, ptype, (-1, 1, -1, 1), grid=3,
                                 mode=mode).verdicts
    S, _ = objective_set(spec, 1, xbar, mode)
    for x, verdict in zip(samples, verdicts.tolist()):
        for u in S.all_vertices():
            rep = witnessed_failure_check(
                spec, xbar, ptype, {"x": x, "ystar": [1.0], "u": [u]}, mode)
            if rep.verdicts[0] == "WITNESSED-FAILURE":
                assert verdict not in VERIFIED, (x, u, rep.lp_optimum)
