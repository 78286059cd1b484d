"""Serial vs parallel vs cached ``run_grid`` on a small Fig-5 subgrid,
and ``run_sweep`` on tiny grids.

The interesting numbers: the parallel/serial ratio (how much of the
fan-out the executor converts into wall-clock), the cached pass, which
should be orders of magnitude below both, and the 1-10 cell sweeps,
where each sweep's job queue and worker start-up weigh most.
"""

import os

import pytest

from repro.experiments.common import run_grid
from repro.sim.cache import ResultCache
from repro.sim.runner import RunSpec
from repro.sim.sweep import run_sweep

from conftest import BENCH_SCALE, run_once

pytestmark = pytest.mark.bench

#: 2 workloads x 2 policies x 1 ratio + 2 shared baselines = 6 simulations.
GRID = dict(workloads=["silo", "btree"], policies=["tpp", "memtis"],
            ratios=["1:8"], scale=BENCH_SCALE)


def _jobs(n):
    """``n`` workers, capped at the machine's cores."""
    return min(n, os.cpu_count() or 1)


@pytest.mark.benchmark(group="sweep-grid")
def test_grid_serial(benchmark):
    out = run_once(benchmark, run_grid, jobs=1, cache=None, **GRID)
    assert len(out) == 4


@pytest.mark.benchmark(group="sweep-grid")
def test_grid_parallel_2(benchmark):
    out = run_once(benchmark, run_grid, jobs=_jobs(2), cache=None, **GRID)
    assert len(out) == 4


@pytest.mark.benchmark(group="sweep-grid")
def test_grid_parallel_4(benchmark):
    out = run_once(benchmark, run_grid, jobs=_jobs(4), cache=None, **GRID)
    assert len(out) == 4


@pytest.mark.benchmark(group="sweep-grid")
def test_grid_cached(benchmark, tmp_path):
    cache = ResultCache(tmp_path / "bench-cache")
    run_grid(jobs=1, cache=cache, **GRID)  # warm every cell
    out = run_once(benchmark, run_grid, jobs=1, cache=cache, **GRID)
    assert len(out) == 4
    assert cache.stats.hits >= 6  # all cells + baselines served from disk


@pytest.mark.benchmark(group="sweep-tiny")
@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("cells", [1, 2, 10])
def test_tiny_sweep(benchmark, cells, jobs):
    specs = [RunSpec("silo", "memtis", scale=BENCH_SCALE, seed=seed,
                     max_accesses=20_000) for seed in range(cells)]
    out = benchmark.pedantic(run_sweep, args=(specs,),
                             kwargs=dict(jobs=_jobs(jobs), cache=None),
                             rounds=5, iterations=1, warmup_rounds=1)
    assert len(out) == cells and all(o.ok for o in out.values())
