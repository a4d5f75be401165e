"""Differential tests of the pseudo-convexity sweep: ``pseudoconvex_test``,
one array pass per y*, against the per-sample loop it replaced
(sweep_oracle.py), and a guard on the geometry work the sweep does."""

import contextlib
import io
import re

import numpy as np
import pytest

import sweep_oracle
from robustkkt import certify, lp
from robustkkt.certify import pseudoconvex_test
from robustkkt.cli import load_problem, resolve_problem_path, run_command
from sweep_oracle import loop_pseudoconvex_test

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


@pytest.mark.parametrize("variant", VARIANTS)
def test_matches_loop_with_cuts(tmp_path, variant):
    edits, region = VARIANTS[variant]
    text = resolve_problem_path("example_3_2").read_text()
    for old, new in edits:
        text = text.replace(old, new)
    path = tmp_path / "variant.problem"
    path.write_text(text)
    spec = load_problem(path)
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


def test_bundled_type_one_sweep_work(monkeypatch, spec22):
    """One _witness_cuts per premise mask, one planar margin per
    (y*, mask, component), and no LP, on the README type I sweep."""
    _, keys = loop_pseudoconvex_test(spec22, np.zeros(2), "I",
                                     region=[-2, 2, -2, 2])
    counts = {"cuts": 0, "planar": 0, "lp": 0}

    def counting(key, fn):
        def wrapped(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(certify, "_witness_cuts",
                        counting("cuts", certify._witness_cuts))
    monkeypatch.setattr(certify, "_planar_witness_margin",
                        counting("planar", certify._planar_witness_margin))
    monkeypatch.setattr(lp.LPBuilder, "solve",
                        counting("lp", lp.LPBuilder.solve))
    with contextlib.redirect_stdout(io.StringIO()):
        assert run_command(["pseudoconvex", "--problem", "example_2_2",
                            "--at", "0,0", "--type", "I",
                            "--region", "-2,2,-2,2"]) == 0
    assert counts["cuts"] == len({mask for _, mask in keys})
    assert counts["lp"] == 0
    # the oracle solves each (y*, mask) once, one margin per component
    monkeypatch.setattr(sweep_oracle, "_planar_witness_margin",
                        counting("oracle", sweep_oracle._planar_witness_margin))
    counts["oracle"] = 0
    loop_pseudoconvex_test(spec22, np.zeros(2), "I", region=[-2, 2, -2, 2])
    assert counts["planar"] == counts["oracle"] == 3026
