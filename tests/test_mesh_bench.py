"""Layer benchmark of one raster mask, the step every raster, efficiency
and converse-duality sweep starts from: the feasibility mask of example 3.2
over the README's 401 x 401 raster of (-5, 1) x (-5, 5), on the open mesh
(x1[:, None], x2[None, :]) that ``raster`` sweeps and on the dense (2, N)
grid of the same cells that it replaced.

It asserts nothing about speed, only that both give the same mask; a few
fixed rounds keep it short.  pytest-benchmark prints the two timings side
by side, in the group ``raster-mask``:

    PYTHONPATH=src python -m pytest tests/test_mesh_bench.py
"""

from __future__ import annotations

import numpy as np
import pytest

from robustkkt.robustfeas import feasibility_mask


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
