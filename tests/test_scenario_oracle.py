"""Differential test of the point envelope against the old maximiser.

``compute_active_sets`` takes every constraint's envelope from the one
scan that also finds its active scenarios.  The oracle in
``tests/scenario_oracle.py`` is the ``phi_i`` that scanned on its own
before.  The envelopes must be bit-equal, compared as int64 views, so a
refinement that returns an equal float of another sign (0.0 against -0.0)
fails too.  Constraints are ``tests/genexpr.py`` trees over one more
coordinate, read as v, over random intervals, degenerate ``[a, a]``
intervals and finite scenario lists, and v-free trees.
"""

from __future__ import annotations

import numpy as np
import pytest

from robustkkt.funcdsl import ExprError, format_expr, parse_expr
from robustkkt.robustfeas import ProblemSpec, UncertainConstraint, \
    compute_active_sets
from robustkkt.setcalc import ConeSpec, OmegaSpec

from genexpr import random_supported_expr
from scenario_oracle import phi_i


def _spec(dim: int, constraints, vgrid: int = 1001) -> ProblemSpec:
    return ProblemSpec(
        dim=dim, objective_names=("f1",), objectives=(parse_expr("x1", dim),),
        constraints=tuple(constraints), cone=ConeSpec(pattern=(1,)),
        omega=OmegaSpec.whole(dim), theta=np.zeros(1), vgrid=vgrid)


def _random_constraint(rng, dim: int, name: str) -> UncertainConstraint:
    if rng.random() < 0.2:
        return UncertainConstraint(name, random_supported_expr(rng, dim))
    text = format_expr(random_supported_expr(rng, dim + 1))
    expr = parse_expr(text.replace(f"x{dim + 1}", "v"), dim)
    if not expr.has_v:
        return UncertainConstraint(name, expr)
    kind = rng.random()
    if kind < 0.5:
        lo, hi = sorted(rng.uniform(-2.0, 2.0, size=2).tolist())
        return UncertainConstraint(name, expr, lo, hi)
    if kind < 0.7:
        a = float(rng.uniform(-2.0, 2.0))
        return UncertainConstraint(name, expr, a, a)
    count = int(rng.integers(1, 6))
    return UncertainConstraint(
        name, expr, scenarios=tuple(rng.uniform(-2.0, 2.0, count).tolist()))


def _random_point(rng, dim: int) -> np.ndarray:
    x = rng.uniform(-1.5, 1.5, size=dim)
    x[rng.random(dim) < 0.25] = 0.0
    return x


def _assert_bit_equal(spec: ProblemSpec, x) -> None:
    try:
        want = [phi_i(spec, i, x) for i in range(1, spec.n_constraints + 1)]
    except ExprError as exc:
        with pytest.raises(type(exc)) as info:
            compute_active_sets(spec, x)
        assert str(info.value) == str(exc)
        return
    got = compute_active_sets(spec, x).phis
    assert np.array_equal(np.array(got, dtype=float).view(np.int64),
                          np.array(want, dtype=float).view(np.int64)), \
        (x, got, want)


@pytest.mark.parametrize("seed", range(8))
def test_envelopes_bit_equal_on_generated_constraints(seed):
    rng = np.random.default_rng(seed)
    for _ in range(12):
        dim = int(rng.integers(1, 3))
        vgrid = int(rng.choice([2, 3, 101, 1001]))
        spec = _spec(dim, [_random_constraint(rng, dim, f"g{k}")
                           for k in range(int(rng.integers(1, 4)))], vgrid)
        for _ in range(3):
            _assert_bit_equal(spec, _random_point(rng, dim))


@pytest.mark.parametrize("text, lo, hi", [
    ("v*x1", -1.0, 1.0),
    ("-v*x1", -1.0, 1.0),
    ("v*x1*x2", -1.0, 0.5),
    ("v*x1 - (v^2 - 1)^2", -1.0, 1.0),
    # 0.0 at the grid's best point v = 0, -0.0 where golden section ends
    ("(x2 - v)*x1", 0.0, 1.0),
])
def test_envelopes_bit_equal_on_signed_zero_ties(text, lo, hi):
    # at x1 = 0 the scenario values are 0.0 and -0.0, equal as floats, so
    # only the order of the refinement's candidates picks the sign
    expr = parse_expr(text, 2)
    spec = _spec(2, [UncertainConstraint("g1", expr, lo, hi),
                     UncertainConstraint("g2", expr, scenarios=(lo, hi))])
    for x in ([0.0, 0.0], [0.0, 1.0], [0.0, -1.0], [0.5, 0.0]):
        _assert_bit_equal(spec, np.array(x))
