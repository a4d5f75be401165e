"""Layer benchmark of the pseudo-convexity sweep's per-y* work, the part of
the benchmark's pseudoconvex-sweep workload that grows with the y* grid:

- ``_SweepGeometry.margins`` on every batch the README type I sweep of
  example 2.2 and the type II sweep of example 2.3 stack (grid 21, y-res
  24), each of about 370 rows of single-vertex component slots;
- ``Scalarization.groups`` on those problems' 576-row y* grid.

It asserts nothing about speed, only that the margins are near those of
``sweep_oracle.SweepGeometry``, the polygon rule the sweep's norm ball
replaced (``test_sweep_oracle.assert_near_the_polygon``), and that the
groups cover every row as the per-row ``sweep_oracle.weights`` keys them;
a few fixed rounds keep it short.
pytest-benchmark prints the timings side by side, in the group
``sweep-margins``:

    PYTHONPATH=src python -m pytest tests/test_sweep_bench.py
"""

from __future__ import annotations

import numpy as np
import pytest

import sweep_oracle
from robustkkt import certify
from robustkkt.certify import pseudoconvex_test, ystar_grid
from robustkkt.subdiff import Scalarization
from test_sweep_oracle import assert_near_the_polygon, polygon_rule

SWEEPS = {"2.2-I": ("spec22", "I"), "2.3-II": ("spec23", "II")}


def _batches(spec, ptype):
    """The geometry and every (components, ytheta) batch of one sweep."""
    calls = []
    margins = certify._SweepGeometry.margins

    def spy(self, comps, ytheta):
        calls.append((self, comps, ytheta))
        return margins(self, comps, ytheta)

    certify._SweepGeometry.margins = spy
    try:
        pseudoconvex_test(spec, np.zeros(2), ptype, [-2, 2, -2, 2], 21, 24)
    finally:
        certify._SweepGeometry.margins = margins
    return calls


@pytest.mark.benchmark(group="sweep-margins")
@pytest.mark.parametrize("sweep", SWEEPS)
def test_margins(benchmark, request, sweep):
    spec_name, ptype = SWEEPS[sweep]
    calls = _batches(request.getfixturevalue(spec_name), ptype)
    assert calls and all(U.shape[1] == 1 for _, comps, _ in calls
                         for U in comps)
    got = benchmark.pedantic(
        lambda: [g.margins(comps, yt) for g, comps, yt in calls], rounds=20,
        warmup_rounds=2)
    for m, (g, comps, yt) in zip(got, calls):
        old = polygon_rule(g.norm, [g.walls[own] for own in g.wall_owner])
        assert_near_the_polygon(m, old.margins(comps, yt), yt)


@pytest.mark.benchmark(group="sweep-margins")
@pytest.mark.parametrize("spec_name", ["spec22", "spec23"])
def test_groups(benchmark, request, spec_name):
    spec = request.getfixturevalue(spec_name)
    Y = ystar_grid(spec, 24)
    scal = Scalarization(spec.objectives, np.zeros(2), "limiting",
                         spec.kink_tol)
    groups = benchmark.pedantic(lambda: scal.groups(Y), rounds=20,
                                warmup_rounds=2)
    assert sorted(r for rows, _ in groups for r in rows.tolist()) == list(
        range(Y.shape[0]))
    keys = {sweep_oracle.weights(scal, y)[0] for y in Y.tolist()}
    _, by_key = scal._keys(Y)
    assert set(by_key) == keys
    for key, (rows, C) in by_key.items():
        for r, cps in zip(rows.tolist(), C):
            assert np.array_equal(cps, sweep_oracle.weights(
                scal, Y[r].tolist())[1])
