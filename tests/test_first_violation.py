"""Differential tests of the cone relation that efficiency classification,
converse duality and weak duality share (``verify._first_violation``): it
builds F(x) - F(xbar) + theta c(x) one objective at a time, only at the
cells every earlier objective left in play.  The references build the
whole (p, N) relation matrix and test it by ``_membership_mask``
(``tests/grid_oracle.py``): ``grid_oracle.classify_point`` for
``classify_point`` in the plane and on the d = 3 sample path, and
``grid_oracle.weak_violation`` for the weak-duality relation on samples.
Verdict, count, first violating point and relation value are compared as
int64 views, so -0.0 and NaN count.

The generated problems draw ``tests/genexpr.py`` objectives (some with a
NaN term such as ``1/x1`` on a grid line), mixed-sign cones, theta with
zero entries (``-0.0`` under a ``<=0`` axis) and nonzero ones, and the
l1, l2 and linf norms; xbar is a raster cell or a sample about half the
time, so the punctured cone's nonzero rule decides there.  Further cases
pin a ``-0.0`` relation value, a theta = 0 entry added as ``+0.0``, and a
region whose l2 norms overflow to inf (theta = 0 then gives NaN).

``max_examples`` is set from a measured budget of about 2 s of Tier-1 for
the file: one generated case takes about 5 ms in each test (both sides and
hypothesis's own work, 2-vCPU Xeon), so 150 planar, 60 three-dimensional
and 200 weak-duality examples take 0.7, 0.3 and 0.9 s.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import grid_oracle
from genexpr import random_supported_expr
from robustkkt.funcdsl import DomainError, parse_expr
from robustkkt.robustfeas import ProblemSpec, UncertainConstraint
from robustkkt.setcalc import ConeSpec, OmegaSpec
from robustkkt.verify import KINDS, _first_violation, classify_point, \
    generate_feasible_samples, strong_duality_from, weak_duality_check
from test_open_mesh import assert_same_verdict, bits

NORMS = ("l1", "l2", "linf")
NAN_TERMS = ("1/x1", "sqrt(x2)", "1/(x1 - x2)")
SEEDS = st.integers(0, 2**32 - 1)


def _problem(rng, dim, norm, constrained=True):
    """A random problem: 1-3 genexpr objectives, one in three with a NaN
    term, a mixed-sign cone, theta_j in {0, +-u} on the cone's side, and
    the disc (ball) of radius 2 as its one constraint."""
    p = int(rng.integers(1, 4))
    pattern = tuple(int(s) for s in rng.choice([-1, 1], p))
    texts = []
    for _ in range(p):
        e = random_supported_expr(rng, dim)
        if rng.random() < 1 / 3:
            e = parse_expr(f"({e}) + {rng.choice(NAN_TERMS)}", dim)
        texts.append(e)
    theta = [s * (0.0 if rng.random() < 0.5 else rng.uniform(0.1, 2.0))
             for s in pattern]
    ball = " + ".join(f"x{k}^2" for k in range(1, dim + 1)) + " - 4"
    cons = (UncertainConstraint("g1", parse_expr(ball, dim), -1.0, 1.0),) \
        if constrained else ()
    return ProblemSpec(
        dim=dim, objective_names=tuple(f"f{j + 1}" for j in range(p)),
        objectives=tuple(texts), constraints=cons,
        cone=ConeSpec(pattern=pattern), omega=OmegaSpec.whole(dim),
        theta=np.array(theta), norm=norm)


def _region(rng):
    a1, a2 = rng.uniform(-3, -0.2, 2)
    b1, b2 = rng.uniform(0.2, 3, 2)
    return (float(a1), float(b1), float(a2), float(b2))


def assert_same_or_raised(spec, xbar, kind, region, resolution):
    """assert_same_verdict, or both sweeps raise DomainError where an
    objective is undefined at xbar and some cell is feasible."""
    try:
        spec.fvec(xbar)
    except DomainError:
        for sweep in (classify_point, grid_oracle.classify_point):
            try:
                got = sweep(spec, xbar, kind, region, resolution)
            except DomainError:
                continue
            assert got.feasible_checked == 0
        return None
    return assert_same_verdict(spec, xbar, kind, region, resolution)


def _raised(fn):
    try:
        return fn()
    except DomainError:
        return DomainError


def assert_same_weak(spec, samples, z, kind):
    """The weak-duality relation gives the oracle's first violating sample
    and relation value, or both raise DomainError (f undefined at z)."""
    cells = np.arange(len(samples))
    got = _raised(lambda: _first_violation(spec, z, True, kind == "I", cells,
                                           lambda t: samples[t].T))
    want = _raised(lambda: grid_oracle.weak_violation(spec, samples, z,
                                                      kind))
    if DomainError in (got, want):
        assert got is want
        return None
    assert (got is None) == (want is None)
    if got is not None:
        for a, b in zip(got, want):
            assert bits(lambda: a) == bits(lambda: b)
    return got


class TestClassifyPoint:
    @given(SEEDS, st.sampled_from(KINDS), st.sampled_from(NORMS))
    @settings(max_examples=150, deadline=None)
    def test_generated_planar_problems(self, seed, kind, norm):
        rng = np.random.default_rng(seed)
        spec, region = _problem(rng, 2, norm), _region(rng)
        res = int(rng.integers(2, 42))
        xbar = rng.uniform(-1, 1, 2)
        if rng.random() < 0.5:  # the nearest cell, if feasible: theta c there
            axes = np.linspace(*region[:2], res), np.linspace(*region[2:], res)
            cell = np.array([a[np.argmin(np.abs(a - x))]
                             for a, x in zip(axes, xbar)])
            xbar = cell if np.hypot(*cell) < 1.9 else xbar
        assert_same_or_raised(spec, xbar, kind, region, res)

    @given(SEEDS, st.sampled_from(KINDS), st.sampled_from(NORMS))
    @settings(max_examples=60, deadline=None)
    def test_sample_path_in_three_dimensions(self, seed, kind, norm):
        rng = np.random.default_rng(seed)
        spec = replace(_problem(rng, 3, norm), seed=int(rng.integers(100)))
        assert_same_or_raised(spec, rng.uniform(-1, 1, 3), kind,
                              (-3, 3) * 3, int(rng.integers(1, 300)))

    def test_both_verdicts_are_generated(self):
        # the generator reaches counterexamples and clean sweeps alike
        found = set()
        for seed in range(40):
            rng = np.random.default_rng(seed)
            spec, region = _problem(rng, 2, "l2"), _region(rng)
            got = assert_same_or_raised(spec, rng.uniform(-1, 1, 2),
                                        KINDS[seed % 4], region, 21)
            found.add(got and got.no_counterexample)
        assert {True, False} <= found

    @pytest.mark.parametrize("theta", [-0.0, 0.0])
    def test_signed_zero_relation(self, theta):
        # f1 = -x1 is -0.0 on the x1 = 0 line and +0.0 at xbar1 = -0.0, so
        # F1 - F1(xbar) is -0.0 there; theta1 * 1 = -0.0 keeps it, +0.0 not
        spec = ProblemSpec(
            dim=2, objective_names=("f1", "f2"),
            objectives=(parse_expr("-x1", 2), parse_expr("x2", 2)),
            constraints=(), cone=ConeSpec(pattern=(-1, 1)),
            omega=OmegaSpec.whole(2), theta=np.array([theta, 0.0]))
        got = assert_same_verdict(spec, np.array([-0.0, 0.0]), "efficient",
                                  (0, 1, -1, 1), 3)
        assert got.counterexample.tolist() == [0.0, -1.0]
        assert np.signbit(got.violation[0]) == np.signbit(theta)
        assert got.violation[1] == -1.0

    @pytest.mark.parametrize("kind, low, found", [
        ("weak", -1e-12, None), ("efficient", -1e-12, None),
        ("efficient", -2e-12, [-1e-12, -2e-12])])
    def test_tolerance_boundary(self, kind, low, found):
        # F = x: -1e-12 is not below -ZERO_TOL, so it is not in -int K,
        # and in -K \ {0} it counts as zero; -2e-12 is not zero
        spec = ProblemSpec(
            dim=2, objective_names=("f1", "f2"),
            objectives=(parse_expr("x1", 2), parse_expr("x2", 2)),
            constraints=(), cone=ConeSpec(pattern=(1, 1)),
            omega=OmegaSpec.whole(2), theta=np.zeros(2))
        got = assert_same_verdict(spec, np.zeros(2), kind,
                                  (-1e-12, 0, low, 0), 2)
        assert got.feasible_checked == 4
        assert got.counterexample is None if found is None else \
            got.counterexample.tolist() == found

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("norm", NORMS)
    def test_overflowing_norms(self, kind, norm):
        # l2 squares 1e200 to inf; theta2 = 0 times an inf norm is NaN
        spec = ProblemSpec(
            dim=2, objective_names=("f1", "f2"),
            objectives=(parse_expr("x1 + x2", 2), parse_expr("x1 - x2", 2)),
            constraints=(), cone=ConeSpec(pattern=(1, 1)),
            omega=OmegaSpec.whole(2), theta=np.array([1.0, 0.0]), norm=norm)
        got = assert_same_verdict(spec, np.zeros(2), kind,
                                  (-1e200, 1e200, -1e200, 1e200), 9)
        assert got.feasible_checked == 81


class TestWeakRelation:
    @given(SEEDS, st.sampled_from(["I", "II"]), st.sampled_from(NORMS),
           st.sampled_from([2, 3]))
    @settings(max_examples=200, deadline=None)
    def test_generated_samples(self, seed, kind, norm, dim):
        rng = np.random.default_rng(seed)
        spec = _problem(rng, dim, norm, constrained=False)
        samples = rng.uniform(-3, 3, (int(rng.integers(1, 200)), dim))
        samples[: len(samples) // 4] = np.round(samples[: len(samples) // 4])
        z = samples[len(samples) // 2].copy() if rng.random() < 0.5 \
            else rng.uniform(-1, 1, dim)
        assert_same_weak(spec, samples, z, kind)

    @pytest.mark.parametrize("kind", ["I", "II"])
    def test_overflowing_norms(self, kind):
        spec = ProblemSpec(
            dim=3, objective_names=("f1", "f2"),
            objectives=(parse_expr("x1 + x3", 3), parse_expr("-x2", 3)),
            constraints=(), cone=ConeSpec(pattern=(1, -1)),
            omega=OmegaSpec.whole(3), theta=np.array([0.0, -1.0]))
        samples = np.random.default_rng(3).uniform(-1e200, 1e200, (50, 3))
        assert_same_weak(spec, samples, np.zeros(3), kind)

    @pytest.mark.parametrize("name,kind", [("example_3_5", "I"),
                                           ("example_2_3", "II"),
                                           ("example_3_5", "II")])
    def test_bundled_checks(self, name, kind, request):
        # weak_duality_check's report is the oracle's on its own samples
        spec = request.getfixturevalue("spec" + name[-3:].replace("_", ""))
        triple = strong_duality_from(spec, np.zeros(2))
        region = (-3, 3, -4, 1)
        rep = weak_duality_check(spec, region, 300, [triple], kind)
        want = grid_oracle.weak_violation(
            spec, generate_feasible_samples(spec, region, 300), triple.z,
            kind)
        assert rep.pairs_checked == 300
        assert (rep.violation is None) == (want is None)
        if want is not None:
            for key, w in zip(("x", "relation_value"), want):
                assert bits(lambda: rep.violation[key]) == bits(lambda: w)
