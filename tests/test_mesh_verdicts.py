"""Differential tests of the raster verdicts against the code they replaced,
kept verbatim in ``tests/grid_oracle.py``.

- ``classify_point`` tests the cone relation one objective at a time on
  the feasible cells still in play, the first objective read on the
  raster's open mesh and the others on the dense columns of the cells
  left; the oracle builds the whole relation matrix on the dense columns
  of every feasible cell (``test_open_mesh.assert_same_verdict``).
  Verdict, count, first counterexample and violation are compared as
  int64 views, for the four kinds on the benchmark's sweep problems at
  resolutions 401 and 40, on planted objectives (``1/x1`` on a raster
  with x1 = 0 on a grid line, ``x1*x2``, a constant) and on the d != 2
  path.
- ``Raster.to_csv`` joins slices of runs of equal flags; the oracle picks
  each cell's tail by ``np.where``.  The bytes are compared on random
  masks, on 1 x 1, n x 0 and 0 x n rasters, on all-true and all-false
  rows, and with subnormal, huge and integer axis values.
"""

from __future__ import annotations

import itertools
from dataclasses import replace

import numpy as np
import pytest

import grid_oracle
from robustkkt.cli import load_problem
from robustkkt.funcdsl import parse_expr
from robustkkt.robustfeas import Raster, raster
from robustkkt.verify import KINDS
from test_grid_scan import _spec
from test_open_mesh import SWEEPS, assert_same_verdict


def _planted(texts):
    """Example 3.2 with its objectives replaced by texts."""
    spec = load_problem("example_3_2")
    return replace(spec, objectives=tuple(parse_expr(t, 2) for t in texts))


class TestClassifyPoint:
    @pytest.mark.parametrize("name,kind",
                             list(itertools.product(SWEEPS, KINDS)))
    def test_sweep_problems(self, name, kind):
        spec, (region, points) = load_problem(name), SWEEPS[name]
        for xbar, resolution in itertools.product(points, (401, 40)):
            assert_same_verdict(spec, np.array(xbar), kind, region,
                                resolution)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("texts", [
        ("1/x1", "x1*x2", "5"), ("x1*x2 - 1/x1", "-2", "abs(x2)/x1"),
        ("1/x1 + 1/x2", "1/(x1*x2)", "x2 - x1*x2")])
    def test_planted_objectives(self, kind, texts):
        # x1 = 0 and x2 = 0 lie on grid lines, where 1/x1 is NaN
        spec = _planted(texts)
        checked = 0
        for region, resolution in (((-2, 2, -3, 3), 41), ((-1, 0, 0, 2), 7)):
            x1 = np.linspace(region[0], region[1], resolution)
            assert 0.0 in x1
            got = assert_same_verdict(spec, np.array([-1.0, 0.5]), kind,
                                      region, resolution)
            checked += got.feasible_checked
        assert checked > 0

    def test_counterexamples_found(self):
        # the planted objectives give counterexamples to compare, the
        # first of them after cells where 1/x1 or 1/x2 is NaN
        for texts, found in ((("1/x1", "x1*x2", "5"), 1),
                             (("1/x1 + 1/x2", "1/(x1*x2)", "x2 - x1*x2"), 4)):
            spec = _planted(texts)
            assert sum(assert_same_verdict(
                spec, np.array([-1.0, 0.5]), kind, (-2, 2, -3, 3),
                41).counterexample is not None for kind in KINDS) == found

    @pytest.mark.parametrize("kind", KINDS)
    def test_no_feasible_cell(self, kind, spec32):
        for region, resolution in (((2, 3, 2, 3), 9), ((-5, 1, -5, 5), 0)):
            got = assert_same_verdict(spec32, np.zeros(2), kind, region,
                                      resolution)
            assert got.feasible_checked == 0

    @pytest.mark.parametrize("kind", KINDS)
    def test_other_dimensions(self, kind):
        spec = _spec(["x1 + v*x2 + x3 - 1"], 3)
        spec = replace(spec, objectives=(parse_expr("x1*x3 - x2", 3),))
        assert_same_verdict(spec, np.zeros(3), kind, (-2, 2) * 3, 500)


def assert_same_csv(x1, x2, feasible):
    r = Raster(np.asarray(x1), np.asarray(x2), np.asarray(feasible,
                                                         dtype=bool))
    got = r.to_csv()
    assert got == grid_oracle.to_csv(r)
    return got


class TestCsv:
    def test_bundled_raster(self, spec35):
        r = raster(spec35, (-3, 3, -4, 1), 401)
        assert assert_same_csv(r.x1, r.x2, r.feasible).count("\n") == \
            401 * 401 + 1

    @pytest.mark.parametrize("p", [0.02, 0.5, 0.98])
    def test_random_masks(self, p):
        rng = np.random.default_rng(int(p * 100))
        for n1, n2 in ((1, 1), (3, 2), (7, 5), (30, 41), (2, 300)):
            assert_same_csv(rng.normal(size=n1), rng.normal(size=n2),
                            rng.random((n1, n2)) < p)

    @pytest.mark.parametrize("n1,n2", [(1, 1), (4, 0), (0, 4), (0, 0),
                                       (1, 6), (6, 1)])
    def test_small_shapes(self, n1, n2):
        for fill in (False, True):
            out = assert_same_csv(np.linspace(-1, 1, n1),
                                  np.linspace(0, 2, n2),
                                  np.full((n1, n2), fill))
            assert out.count("\n") == n1 * n2 + 1

    def test_whole_rows_and_runs(self):
        flags = np.zeros((6, 9), dtype=bool)
        flags[1] = True
        flags[3, ::2] = True
        flags[4, 4:] = True
        flags[5, :1] = True
        assert_same_csv(np.arange(6.0), np.arange(9.0) / 8, flags)
        assert_same_csv(np.arange(6.0), np.arange(9.0) / 8, ~flags)

    def test_extreme_axis_values(self):
        x1 = np.array([5e-324, -5e-324, 2.2250738585072014e-308, 1e308,
                       -1.7976931348623157e308, -0.0, 0.1 + 0.2])
        x2 = np.array([1e-320, 3e300, -0.0, 1.0])
        rng = np.random.default_rng(5)
        assert_same_csv(x1, x2, rng.random((7, 4)) < 0.5)

    def test_integer_axes(self):
        assert_same_csv(np.arange(3), np.arange(4), np.eye(3, 4))
