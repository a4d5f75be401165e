"""Differential tests of the pseudo-convexity sweep: ``pseudoconvex_test``,
one array pass per y*, against the per-sample loop it replaced
(sweep_oracle.py); its batched planar margins against the per-(y*, mask,
component) margin they replaced; and a guard on the geometry work the sweep
does."""

import contextlib
import io
import math
import re
from collections import Counter

import numpy as np
import pytest

import sweep_oracle
from robustkkt import certify, cli, funcdsl, lp, subdiff
from robustkkt.certify import pseudoconvex_test
from robustkkt.cli import load_problem, resolve_problem_path, run_command
from sweep_oracle import direct_subdiff, loop_pseudoconvex_test

FIXTURES = ["example_2_2", "example_2_3", "example_3_2", "example_3_5"]
VERDICTS = {"VERIFIED-CANDIDATE-W", "VERIFIED-COMMON-W", "INCONCLUSIVE"}
_YSTAR = re.compile(r"y\*=(\[.*\])$")


def _rows(report):
    return [(v.verdict, v.premise_active, v.detail) for v in report.verdicts]


def assert_same_sweep(spec, xbar, ptype, **kw):
    """The two sweeps agree sample for sample; returns the oracle's rows."""
    expected, _ = loop_pseudoconvex_test(spec, xbar, ptype, **kw)
    got = pseudoconvex_test(spec, xbar, ptype, **kw)
    assert _rows(got) == _rows(expected)
    assert got.all_verified == expected.all_verified
    assert all(np.array_equal(a.x, b.x)
               for a, b in zip(got.verdicts, expected.verdicts))
    # the first y* without a witness, as each detail names it
    first = [[_YSTAR.search(v.detail).group(1) for v in r.verdicts
              if v.verdict == "INCONCLUSIVE"] for r in (got, expected)]
    assert first[0] == first[1]
    return _rows(expected)


def _random_case(rng, spec):
    c = rng.uniform(-1.5, 1.5, 2)
    w = rng.uniform(0.3, 3.0, 2)
    region = [c[0] - w[0], c[0] + w[0], c[1] - w[1], c[1] + w[1]]
    xbar = np.round(rng.uniform(-1.0, 1.0, 2), 3)
    if not spec.omega.contains(xbar):
        xbar = np.zeros(2)
    return xbar, region, int(rng.integers(5, 12)), int(rng.integers(3, 10))


@pytest.mark.parametrize("ptype", ["I", "II"])
@pytest.mark.parametrize("name", FIXTURES)
def test_matches_loop_on_fixtures(name, ptype):
    spec = load_problem(name)
    rng = np.random.default_rng([FIXTURES.index(name), ptype == "II"])
    assert_same_sweep(spec, np.zeros(2), ptype, region=[-2, 2, -2, 2],
                      grid=9, y_resolution=8)
    for _ in range(4):
        xbar, region, grid, y_res = _random_case(rng, spec)
        assert_same_sweep(spec, xbar, ptype, region=region, grid=grid,
                          y_resolution=y_res)


@pytest.mark.parametrize("ptype", ["I", "II"])
def test_matches_loop_on_inconclusive_samples(ptype):
    # example_3_2 has premises without a witness margin around the origin
    spec = load_problem("example_3_2")
    verdicts = set()
    for xbar, region in (([0.0, 0.0], [-2.33, -0.12, -1.87, 2.36]),
                         ([0.0, 0.0], [0.74, 1.91, -2.4, 1.59]),
                         ([0.24, 0.99], [-1.83, 1.47, -0.08, 2.81])):
        rows = assert_same_sweep(spec, np.array(xbar), ptype, region=region,
                                 grid=11, y_resolution=9)
        verdicts |= {r[0] for r in rows}
    assert verdicts == VERDICTS


BOX = ("kind = whole", "kind = box\nbounds = -1..1, 0..inf")
# edits of example_3_2 and the region sampled
VARIANTS = {
    # xbar = (0, 0) lies on the box's face x2 = 0: the normal cone cuts w
    "box-l1": ([BOX, ("norm = l2", "norm = l1")], [-2, 2, -1, 3]),
    "box-linf": ([BOX, ("norm = l2", "norm = linf")], [-2, 2, -1, 3]),
    # the premise of g3 holds everywhere, and its subgradients (+-1, 0)
    # rule out the candidate w = x - xbar off the x2-axis
    "concave-row": ([("[options]", 'g3 = "-abs(x1)"\n\n[options]')],
                    [-2, 2, -2, 2]),
}


def _variant(tmp_path, variant):
    edits, region = VARIANTS[variant]
    text = resolve_problem_path("example_3_2").read_text()
    for old, new in edits:
        text = text.replace(old, new)
    path = tmp_path / "variant.problem"
    path.write_text(text)
    return load_problem(path), region


@pytest.mark.parametrize("variant", VARIANTS)
def test_matches_loop_with_cuts(tmp_path, variant):
    spec, region = _variant(tmp_path, variant)
    for ptype in ("I", "II"):
        rows = assert_same_sweep(spec, np.zeros(2), ptype, region=region,
                                 grid=9, y_resolution=6)
        assert {r[0] for r in rows} == VERDICTS


def test_matches_loop_in_three_dimensions(tmp_path):
    # explicit samples off the plane: the margins come from HiGHS LPs
    path = tmp_path / "cube.problem"
    path.write_text(
        "[space]\ndim = 3\n\n[cone]\npattern = <=0, >=0\n\n"
        "[theta]\nvalue = 0, 1/2\n\n[omega]\nkind = whole\n\n"
        '[objectives]\nf1 = "abs(x1) - x2 + x3"\n'
        'f2 = "abs(x2) + abs(x3) - x1/2"\n\n'
        '[constraints]\ng1 = "x1 + abs(x2) - 1"\n'
        'g2 = "v*x3 + x2/4 - 1" with v in [1/2, 1]\n')
    spec = load_problem(path)
    rng = np.random.default_rng(3)
    samples = rng.uniform(-1.5, 1.5, size=(40, 3))
    for ptype in ("I", "II"):
        rows = assert_same_sweep(spec, np.zeros(3), ptype, samples=samples,
                                 y_resolution=6)
        assert {r[0] for r in rows} == VERDICTS


def test_no_samples(spec22):
    rep = pseudoconvex_test(spec22, np.zeros(2), "I", samples=np.zeros((0, 2)))
    assert rep.verdicts == [] and rep.all_verified


def test_type_two_at_benchmark_size(spec23):
    # the second sweep of the benchmark's pseudoconvex workload
    assert_same_sweep(spec23, np.zeros(2), "II", region=[-2, 2, -2, 2],
                      grid=21, y_resolution=24)


def _counting(counts, key, fn, weight=lambda *args: 1):
    def wrapped(*args, **kwargs):
        counts[key] += weight(*args)
        return fn(*args, **kwargs)
    return wrapped


def test_bundled_type_one_sweep_work(monkeypatch, spec22):
    """On the README type I sweep: one hull, the base polygon, and no
    fallback; one _witness_cuts per premise mask; one batched margin
    evaluation per (y*, component), which groups the oracle's one planar
    margin per (y*, mask, component); and no LP.  Each objective is walked
    once per sweep: one walk per objective visits each of its operands
    once; no tree is built (no mul); and there is one scalarization call
    per y* the sweep examines, as there was one direct_subdiff call."""
    counts = dict.fromkeys(["cuts", "hull", "chain", "batch", "polygon",
                            "lp", "oracle", "mul", "scalarize",
                            "oracle_scalarize"], 0)
    # the oracle solves each (y*, mask) once, one margin per component,
    # and builds one scalarization tree per y* it examines
    monkeypatch.setattr(sweep_oracle, "_planar_witness_margin", _counting(
        counts, "oracle", sweep_oracle._planar_witness_margin))
    monkeypatch.setattr(sweep_oracle, "direct_subdiff", _counting(
        counts, "oracle_scalarize", sweep_oracle.direct_subdiff))
    _, keys = loop_pseudoconvex_test(spec22, np.zeros(2), "I",
                                     region=[-2, 2, -2, 2])
    ys = certify.ystar_grid(spec22)
    ncomp = {myi: direct_subdiff(ys[myi], spec22.objectives, np.zeros(2),
                                 "limiting", spec22.kink_tol).set.ncomponents
             for myi in {myi for myi, _ in keys}}
    assert counts["oracle"] == sum(ncomp[myi] for myi, _ in keys) == 3026
    for module, name, key in (
            (certify, "_witness_cuts", "cuts"),
            (certify, "_planar_ball", "hull"),
            (certify, "_monotone_chain", "chain"),
            (certify._SweepGeometry, "polygon", "polygon"),
            (lp.LPBuilder, "solve", "lp")):
        monkeypatch.setattr(module, name,
                            _counting(counts, key, getattr(module, name)))
    monkeypatch.setattr(certify._SweepGeometry, "margins", _counting(
        counts, "batch", certify._SweepGeometry.margins,
        lambda self, components, *rest: len(components)))
    monkeypatch.setattr(funcdsl, "mul", _counting(counts, "mul",
                                                  funcdsl.mul))
    monkeypatch.setattr(subdiff.Scalarization, "__call__", _counting(
        counts, "scalarize", subdiff.Scalarization.__call__))
    # the objectives' operands: the terms of a sum, else the objective
    operands = {id(t): t for f in spec22.objectives
                for t in (f.children if f.kind == "sum" else (f,))}
    walks, walkers = Counter(), []
    node = funcdsl._PointWalk.node

    def spy_node(self, e, ctx_linear):
        if id(e) in operands:
            walks[id(e)] += 1
            if self not in walkers:
                walkers.append(self)
        return node(self, e, ctx_linear)

    monkeypatch.setattr(funcdsl._PointWalk, "node", spy_node)
    # the command runs on spec22's own objective trees
    monkeypatch.setattr(cli, "load_problem", lambda path: spec22)
    with contextlib.redirect_stdout(io.StringIO()):
        assert run_command(["pseudoconvex", "--problem", "example_2_2",
                            "--at", "0,0", "--type", "I",
                            "--region", "-2,2,-2,2"]) == 0
    assert counts["cuts"] == len({mask for _, mask in keys})
    assert counts["hull"] == counts["chain"] == 1
    assert counts["batch"] == counts["polygon"] == sum(ncomp.values()) == 760
    assert counts["lp"] == 0
    assert len(walkers) == len(spec22.objectives) == 3
    assert walks == Counter(dict.fromkeys(operands, 1))
    assert counts["mul"] == 0
    assert counts["scalarize"] == counts["oracle_scalarize"] == 381


def assert_same_margin(got, want, eps_strict):
    """Within 4 ulps from 1e-9 up; below it (or -inf, no margin), both
    sides fail the sweep's eps_strict test alike."""
    if min(got, want) < 1e-9:
        assert max(got, want) < eps_strict, (got, want)
    else:
        assert abs(got - want) <= 4 * np.spacing(max(got, want)), (got, want)


def assert_same_margins(monkeypatch, spec, xbar, ptype, eps_strict=1e-7,
                        **kw):
    """Every (y*, mask, component) the sweep meets: the batched margin
    against the oracle's _planar_witness_margin, and each (y*, mask)
    against its _normalized_margin.  Returns the number of margins."""
    built, calls = [], []
    init = certify._SweepGeometry.__init__
    margins = certify._SweepGeometry.margins

    def spy_init(self, pball, l2_dirs, cut_rows):
        # a lineality generator cuts both ways
        built.append((pball, l2_dirs, [np.vstack([cuts, lines, -lines])
                                       for cuts, lines in cut_rows]))
        init(self, pball, l2_dirs, cut_rows)

    def spy_margins(self, components, ytheta, ids):
        calls.append((self, components, ytheta, ids))
        return margins(self, components, ytheta, ids)

    monkeypatch.setattr(certify._SweepGeometry, "__init__", spy_init)
    monkeypatch.setattr(certify._SweepGeometry, "margins", spy_margins)
    pseudoconvex_test(spec, xbar, ptype, eps_strict=eps_strict, **kw)
    monkeypatch.undo()
    if not calls:
        return 0
    (pball, l2_dirs, walls), = built
    seen = 0
    for geometry, components, ytheta, ids in calls:
        whole = margins(geometry, components, ytheta, ids)
        for comp in components:
            polygon = certify._planar_ball(
                certify._witness_ball(comp, pball, l2_dirs))
            batched = margins(geometry, [comp], ytheta, ids)
            for j, got in zip(ids.tolist(), batched.tolist()):
                found = sweep_oracle._planar_witness_margin(
                    comp.vertices, ytheta, 1.0, polygon, walls[j])
                assert_same_margin(got, -math.inf if found is None
                                   else found[0], eps_strict)
                seen += 1
        for j, got in zip(ids.tolist(), whole.tolist()):
            assert_same_margin(got, sweep_oracle._normalized_margin(
                components, [None] * len(components), ytheta,
                (None, None, walls[j]), pball, l2_dirs), eps_strict)
    return seen


@pytest.mark.parametrize("name, ptype", [("example_2_2", "I"),
                                         ("example_2_3", "II")])
def test_batched_margins_on_bundled_sweeps(monkeypatch, name, ptype):
    spec = load_problem(name)
    assert assert_same_margins(monkeypatch, spec, np.zeros(2), ptype,
                               region=[-2, 2, -2, 2]) >= 1000


@pytest.mark.parametrize("variant", VARIANTS)
def test_batched_margins_with_cuts(monkeypatch, tmp_path, variant):
    spec, region = _variant(tmp_path, variant)
    for ptype in ("I", "II"):
        assert assert_same_margins(monkeypatch, spec, np.zeros(2), ptype,
                                   region=region, grid=9,
                                   y_resolution=6) > 0
