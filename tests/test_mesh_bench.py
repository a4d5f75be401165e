"""Layer benchmarks of the raster verdicts on the README's 401 x 401
rasters, each beside the code it replaced (``tests/grid_oracle.py``):

- ``raster-mask``: the feasibility mask of example 3.2 over (-5, 1) x
  (-5, 5), the step every raster, efficiency and converse-duality sweep
  starts from, on the open mesh (x1[:, None], x2[None, :]) that ``raster``
  sweeps and on the dense (2, N) grid of the same cells that it replaced;
- ``raster-csv``: ``Raster.to_csv`` of example 3.5's raster of (-3, 3) x
  (-4, 1), joining runs of equal flags, and the ``np.where`` writer;
- ``classify-tail``: ``classify_point`` of all four kinds in turn at the
  origin on examples 3.2 and 3.5 (``open-mesh``: the cone relation tested
  one objective at a time on the cells still in play, the first
  objective read on the open mesh), and the sweep that built the whole
  relation matrix on the dense feasible columns (``dense``).

They assert nothing about speed, only that both sides give the same mask,
bytes or verdict bits; a few fixed rounds keep them short.
pytest-benchmark prints each group's timings side by side:

    PYTHONPATH=src python -m pytest tests/test_mesh_bench.py
"""

from __future__ import annotations

import numpy as np
import pytest

import grid_oracle
from robustkkt.cli import load_problem
from robustkkt.robustfeas import feasibility_mask, raster
from robustkkt.verify import KINDS, classify_point
from test_open_mesh import SWEEPS, assert_same_verdict


@pytest.mark.benchmark(group="raster-mask")
@pytest.mark.parametrize("grid", ["open-mesh", "dense"])
def test_raster_mask(benchmark, spec32, grid):
    x1, x2 = np.linspace(-5, 1, 401), np.linspace(-5, 5, 401)
    mesh = np.meshgrid(x1, x2, indexing="ij", sparse=True)
    dense = np.vstack([g.ravel() for g in np.meshgrid(x1, x2, indexing="ij")])
    X = {"open-mesh": mesh, "dense": dense}[grid]
    mask = benchmark.pedantic(lambda: feasibility_mask(spec32, X), rounds=10,
                              warmup_rounds=2)
    assert mask.ravel().tolist() == feasibility_mask(spec32, dense).tolist()


@pytest.mark.benchmark(group="raster-csv")
@pytest.mark.parametrize("writer", ["runs", "np.where"])
def test_raster_csv(benchmark, spec35, writer):
    r = raster(spec35, (-3, 3, -4, 1), 401)
    write = {"runs": r.to_csv, "np.where": lambda: grid_oracle.to_csv(r)}
    text = benchmark.pedantic(write[writer], rounds=10, warmup_rounds=2)
    assert text == grid_oracle.to_csv(r)


@pytest.mark.benchmark(group="classify-tail")
@pytest.mark.parametrize("grid", ["open-mesh", "dense"])
@pytest.mark.parametrize("name", ["example_3_2", "example_3_5"])
def test_classify_tail(benchmark, name, grid):
    spec, region = load_problem(name), SWEEPS[name][0]
    sweep = {"open-mesh": classify_point,
             "dense": grid_oracle.classify_point}[grid]
    benchmark.pedantic(
        lambda: [sweep(spec, np.zeros(2), kind, region, 401)
                 for kind in KINDS], rounds=10, warmup_rounds=2)
    for kind in KINDS:
        assert_same_verdict(spec, np.zeros(2), kind, region, 401)
