"""Differential tests of the pseudo-convexity sweep: ``pseudoconvex_test``,
one array pass per y*, against the per-sample loop it replaced
(sweep_oracle.py); its batched planar margins against an oracle's margin
per (y*, mask, component), the exact disk's in l2 and the polygon's in l1
and linf; and a guard on the geometry work the sweep does."""

import contextlib
import io
import math
import re
from collections import Counter

import numpy as np
import pytest

import sweep_oracle
from helpers import ball_polytope
from robustkkt import certify, cli, funcdsl, lp, setcalc, subdiff
from robustkkt.certify import pseudoconvex_test
from robustkkt.cli import load_problem, resolve_problem_path, run_command
from robustkkt.funcdsl import DomainError
from sweep_oracle import direct_subdiff, loop_pseudoconvex_test

FIXTURES = ["example_2_2", "example_2_3", "example_3_2", "example_3_5"]
VERDICTS = {"VERIFIED-CANDIDATE-W", "VERIFIED-COMMON-W", "INCONCLUSIVE"}
_YSTAR = re.compile(r"y\*=(\[.*\])$")


def _verdicts(samples):
    """The oracle's verdict per sample, in sample order."""
    return [v.verdict for v in samples]


def assert_same_sweep(spec, xbar, ptype, **kw):
    """The sweep's verdict array is the oracle's verdicts, sample for
    sample; returns them."""
    expected, _ = loop_pseudoconvex_test(spec, xbar, ptype, **kw)
    got = pseudoconvex_test(spec, xbar, ptype, **kw).verdicts
    assert isinstance(got, np.ndarray) and got.shape == (len(expected),)
    assert got.tolist() == _verdicts(expected)
    return _verdicts(expected)


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
@pytest.mark.parametrize("name", FIXTURES)
def test_matches_loop_in_hull_mode(name, ptype):
    """Hull mode, where a set's shape depends on its values most often:
    the hull of several segments is a polygon of value-dependent size."""
    assert_same_sweep(load_problem(name), np.zeros(2), ptype,
                      region=[-2, 2, -2, 2], grid=9, y_resolution=8,
                      mode="hull")


@pytest.mark.parametrize("ptype", ["I", "II"])
def test_matches_loop_in_hull_mode_on_inconclusive_samples(ptype):
    found = assert_same_sweep(load_problem("example_3_2"), np.zeros(2),
                              ptype, region=[-2.33, -0.12, -1.87, 2.36],
                              grid=11, y_resolution=9, mode="hull")
    assert "INCONCLUSIVE" in found


@pytest.mark.parametrize("ptype", ["I", "II"])
def test_matches_loop_on_inconclusive_samples(ptype):
    # example_3_2 has premises without a witness margin around the origin
    spec = load_problem("example_3_2")
    verdicts = set()
    for xbar, region in (([0.0, 0.0], [-2.33, -0.12, -1.87, 2.36]),
                         ([0.0, 0.0], [0.74, 1.91, -2.4, 1.59]),
                         ([0.24, 0.99], [-1.83, 1.47, -0.08, 2.81])):
        found = assert_same_sweep(spec, np.array(xbar), ptype,
                                  region=region, grid=11, y_resolution=9)
        verdicts |= set(found)
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
        found = assert_same_sweep(spec, np.zeros(2), ptype, region=region,
                                  grid=9, y_resolution=6)
        assert set(found) == VERDICTS


def _outcome(fn):
    try:
        return fn()
    except DomainError as exc:
        return str(exc)


@pytest.mark.parametrize("ptype", ["I", "II"])
def test_exception_from_the_first_reached_ystar(monkeypatch, ptype):
    """A y* whose scalarization raises stops the sweep only where a loop
    over the y* in index order meets it: at a y* where an active sample
    has not failed yet, the first such.  Every active sample of y* 11 has
    failed at an earlier y*, while y* 12 has active samples not failed
    yet.  (The oracle visits samples first, so it may meet another refused
    y* first; it is compared where nothing is raised.)"""
    spec = load_problem("example_3_2")
    region = (-2.33, -0.12, -1.87, 2.36)
    kw = dict(region=list(region), grid=11, y_resolution=9)
    want, _ = loop_pseudoconvex_test(spec, np.zeros(2), ptype, **kw)
    ys, _, G = _premises(spec, ptype, region, 11, 9)
    index = {str(np.round(y, 6).tolist()): i for i, y in enumerate(ys)}
    first = np.array([index[_YSTAR.search(v.detail).group(1)]
                      if v.verdict == "INCONCLUSIVE" else -1
                      for v in want])
    met = G & ((first < 0) | (first >= np.arange(len(ys))[:, None]))
    assert G[11].any() and not met[11].any() and met[12].any()

    groups, oracle = subdiff.Scalarization.groups, \
        sweep_oracle.direct_subdiff
    for refused in ({11}, {11, 12}, {11, 12, 13}):
        bad = {tuple(ys[r].tolist()): r for r in refused}

        def refuse(y):
            if tuple(np.asarray(y, dtype=float).tolist()) in bad:
                raise DomainError(f"refused y* {bad[tuple(y)]}")

        def refusing_groups(self, Y):
            """groups with the rows of bad refused, each alone."""
            out = []
            for rows, comps in groups(self, Y):
                keep = np.ones(rows.size, dtype=bool)
                for i, r in enumerate(rows.tolist()):
                    try:
                        refuse(Y[r])
                    except DomainError as exc:
                        out.append((rows[i:i + 1], exc))
                        keep[i] = False
                out.append((rows[keep], comps if isinstance(comps, Exception)
                            else [V[keep] for V in comps]))
            return out

        monkeypatch.setattr(subdiff.Scalarization, "groups", refusing_groups)
        monkeypatch.setattr(sweep_oracle, "direct_subdiff",
                            lambda y, *a: refuse(list(y)) or oracle(y, *a))
        got = _outcome(lambda: pseudoconvex_test(spec, np.zeros(2), ptype,
                                                 **kw).verdicts.tolist())
        if refused == {11}:
            assert got == _outcome(lambda: _verdicts(loop_pseudoconvex_test(
                spec, np.zeros(2), ptype, **kw)[0])) == _verdicts(want)
        else:
            assert got == "refused y* 12"


def test_no_samples(spec22):
    rep = pseudoconvex_test(spec22, np.zeros(2), "I", [-2, 2, -2, 2], grid=0)
    assert isinstance(rep.verdicts, np.ndarray) and rep.verdicts.shape == (0,)


def test_type_two_at_benchmark_size(spec23):
    # the second sweep of the benchmark's pseudoconvex workload
    assert_same_sweep(spec23, np.zeros(2), "II", region=[-2, 2, -2, 2],
                      grid=21, y_resolution=24)


def _counting(counts, key, fn, weight=lambda *args: 1):
    def wrapped(*args, **kwargs):
        counts[key] += weight(*args)
        return fn(*args, **kwargs)
    return wrapped


def _sweep_counts(monkeypatch, argv, names):
    """Calls of each (owner, name, key) in names during one command."""
    counts = Counter()
    for owner, name, key in names:
        monkeypatch.setattr(owner, name,
                            _counting(counts, key, getattr(owner, name)))
    with contextlib.redirect_stdout(io.StringIO()):
        assert run_command(argv) == 0
    monkeypatch.undo()
    return counts


def test_bundled_type_one_sweep_work(monkeypatch, spec22):
    """On the README type I sweep: one geometry; one _witness_cuts per
    premise mask; the y* scalarized in one
    batch, refused once per structure key (one scenario check per kept
    objective), one vertex pass per structure group (the zero pattern, the
    unit constants and the coefficients' signs of the oracle's sets); one
    stacked margin evaluation per group that needs margins; no Polytope
    per y* (as many as at a coarser y* grid: those of the constraint rows);
    and no LP.  Each objective is walked once per sweep: its walk is
    compiled once and called once, and no tree is built (no mul)."""
    counts = Counter()
    monkeypatch.setattr(sweep_oracle, "_planar_witness_margin", _counting(
        counts, "oracle", sweep_oracle._planar_witness_margin))
    _, keys = loop_pseudoconvex_test(spec22, np.zeros(2), "I",
                                     region=[-2, 2, -2, 2])
    monkeypatch.undo()
    ys = certify.ystar_grid(spec22, 24)
    sets = {myi: direct_subdiff(ys[myi], spec22.objectives, np.zeros(2),
                                "limiting", spec22.kink_tol)
            for myi in {myi for myi, _ in keys}}
    assert counts["oracle"] == sum(sets[myi].set.ncomponents
                                   for myi, _ in keys) == 3026
    # the y* the sweep scalarizes: those where some sample's premise holds
    _, _, G = _premises(spec22, "I")
    groups = set()
    for myi in np.flatnonzero(G.any(axis=1)).tolist():
        res = sets.get(myi) or direct_subdiff(
            ys[myi], spec22.objectives, np.zeros(2), "limiting",
            spec22.kink_tol)
        coeffs = [float(r.rsplit("coeff=", 1)[1][:-1]) for r in res.rules
                  if "coeff=" in r]
        groups.add((tuple(ys[myi] == 0), tuple(ys[myi] == 1),
                    tuple(np.sign(coeffs))))

    argv = ["pseudoconvex", "--problem", "example_2_2", "--at", "0,0",
            "--type", "I", "--region", "-2,2,-2,2"]
    per_sweep = [(setcalc.Polytope, "__init__", "polytope")]
    coarse = _sweep_counts(monkeypatch, argv + ["--y-res", "8"], per_sweep)
    vertex_groups, counts, structures = [], Counter(), set()
    batch = subdiff.Scalarization.groups

    def spy_groups(self, Y):
        before = counts["sums"], counts["scenario"]
        out = batch(self, Y)
        counts["group_sums"] += counts["sums"] - before[0]
        counts["group_scenario"] += counts["scenario"] - before[1]
        vertex_groups.extend(out)
        structures.update(sweep_oracle.weights(self, y)[0]
                          for y in Y.tolist())
        return out

    monkeypatch.setattr(subdiff.Scalarization, "groups", spy_groups)
    # the objectives' compiled walks, compiled afresh and counted per call
    walks, compiled = Counter(), Counter()
    compile_ = funcdsl._compile

    def spy_compile(e, target=funcdsl.SCALAR):
        fn = compile_(e, target)
        if target != funcdsl.WALK:
            return fn
        compiled[id(e)] += 1

        def walk(*args):
            walks[id(e)] += 1
            return fn(*args)
        return walk

    for f in spec22.objectives:
        monkeypatch.delitem(f.__dict__, "walk_fn", raising=False)
    monkeypatch.setattr(funcdsl, "_compile", spy_compile)
    # the command runs on spec22's own objective trees
    monkeypatch.setattr(cli, "load_problem", lambda path: spec22)
    for owner, name, key in [
            (certify, "_witness_cuts", "cuts"),
            (certify._SweepGeometry, "__init__", "geometry"),
            (certify._SweepGeometry, "margins", "batch"),
            (subdiff.Scalarization, "groups", "groups"),
            (subdiff, "_sums", "sums"),
            (subdiff, "_check_scenario", "scenario"),
            (funcdsl, "mul", "mul"),
            (lp.LPBuilder, "solve", "lp"), *per_sweep]:
        monkeypatch.setattr(owner, name,
                            _counting(counts, key, getattr(owner, name)))
    with contextlib.redirect_stdout(io.StringIO()):
        assert run_command(argv) == 0
    assert counts["cuts"] == len({mask for _, mask in keys})
    assert counts["geometry"] == 1
    assert counts["groups"] == 1
    # the y* with kappa > 0 (segments) clear every sample by the candidate
    assert len(vertex_groups) == len(groups) == 2 and counts["batch"] == 1
    assert counts["group_sums"] == len(groups)  # one vertex pass each
    # the refusals once per structure key, not per y*: one scenario check
    # per kept objective
    assert len(structures) == 1
    assert counts["group_scenario"] == sum(
        state != 0 for key in structures for state in key[0]) == 3
    assert counts["polytope"] == coarse["polytope"]
    assert counts["lp"] == 0
    objectives = dict.fromkeys(map(id, spec22.objectives), 1)
    assert len(objectives) == 3
    assert {k: walks[k] for k in objectives} == objectives
    assert {k: compiled[k] for k in objectives} == objectives
    assert counts["mul"] == 0


def _premises(spec, ptype, region=(-2, 2, -2, 2), grid=21, y_res=24):
    """The y* grid, the samples and the premise matrix of a sweep."""
    ys = certify.ystar_grid(spec, y_res)
    g1, g2 = np.meshgrid(np.linspace(region[0], region[1], grid),
                         np.linspace(region[2], region[3], grid),
                         indexing="ij")
    X = np.vstack([g1.ravel(), g2.ravel()])
    norms = setcalc.norm_grid(spec.norm, X)
    G = ys @ (spec.fvec_grid(X) - spec.fvec(np.zeros(2))[:, None]) \
        + np.outer(ys @ spec.theta, norms)
    G = G < -1e-7 if ptype == "I" else G <= 1e-12
    G[:, norms <= 1e-12] = False
    return ys, X, G


def assert_same_margin(got, lo, hi, polygon):
    """From 1e-9 up, within 4 ulps of the polygon's margin lo = hi, or
    within 1e-12 of the disk's bracket [lo, hi]; below it (or -inf, no
    margin), both sides fail the sweep's EPS_STRICT test alike."""
    if min(got, lo) < 1e-9:
        assert max(got, lo) < certify.EPS_STRICT, (got, lo, hi)
    elif polygon:
        assert abs(got - lo) <= 4 * np.spacing(max(got, lo)), (got, lo)
    else:
        assert lo - 1e-12 <= got <= hi + 1e-12, (got, lo, hi)


def assert_same_margins(monkeypatch, spec, xbar, ptype, **kw):
    """Every (y*, mask, component) of every batch the sweep stacks: the
    batched margin of each component slot, over all the batch's rows,
    against the oracle's, within 1e-12 of the exact disk's bracket
    (sweep_oracle.disk_margin) in l2, and within 4 ulps of
    _planar_witness_margin over the ball's polygon in l1 and linf; and
    each (y*, mask) against the least of those.  Returns the number of
    margins."""
    built, calls = [], []
    init = certify._SweepGeometry.__init__
    margins = certify._SweepGeometry.margins

    def spy_init(self, norm, walls):
        built.append((norm, walls))
        init(self, norm, walls)

    def spy_margins(self, comps, ytheta):
        calls.append((self, comps, ytheta))
        return margins(self, comps, ytheta)

    monkeypatch.setattr(certify._SweepGeometry, "__init__", spy_init)
    monkeypatch.setattr(certify._SweepGeometry, "margins", spy_margins)
    pseudoconvex_test(spec, xbar, ptype, **kw)
    monkeypatch.undo()
    if not calls:
        return 0
    (norm, walls), = built
    polygon = sweep_oracle._planar_ball(ball_polytope(
        setcalc.DUAL_NORM[norm], 2).vertices)
    seen = 0
    for geometry, comps, ytheta in calls:
        # the least over the components of the bracket (or margin) of each
        least = np.full((2, ytheta.size, len(walls)), math.inf)
        for U in comps:
            batched = margins(geometry, [U], ytheta)
            for r, row in enumerate(batched.tolist()):
                for j, got in enumerate(row):
                    if norm == "l2":
                        want = sweep_oracle.disk_margin(U[r], ytheta[r],
                                                        walls[j])
                    else:
                        found = sweep_oracle._planar_witness_margin(
                            U[r], ytheta[r], 1.0, polygon, walls[j])
                        want = (-math.inf if found is None else found[0],) * 2
                    want = [-math.inf if m < 0.0 else m for m in want]
                    assert_same_margin(got, *want, norm != "l2")
                    least[:, r, j] = np.minimum(least[:, r, j], want)
                    seen += 1
        for got, lo, hi in zip(margins(geometry, comps, ytheta).ravel(),
                               least[0].ravel(), least[1].ravel()):
            assert_same_margin(got, lo, hi, norm != "l2")
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
