"""Shared fixtures: small machines, contexts, and policy harnesses."""

import threading

import numpy as np
import pytest

from repro.mem.address_space import AddressSpace
from repro.mem.migration import MigrationEngine
from repro.mem.tiers import TieredMemory, dram_spec, nvm_spec
from repro.mem.tlb import TLB, TLBConfig
from repro.pebs.sampler import PEBSSampler, SamplerConfig
from repro.policies.base import PolicyContext
from repro.sim.machine import MachineSpec, ScaleSpec
from repro.workloads import prefetch

MB = 1024 * 1024

#: Tiny scale for end-to-end tests (seconds, not minutes).
TEST_SCALE = ScaleSpec(
    bytes_per_paper_gb=1 * MB,
    accesses_per_paper_gb=20_000,
    min_bytes=48 * MB,
    min_accesses_per_page=40,
)

#: Denser scale for behavioural assertions that need converged statistics
#: (hot-set sizing, split benefits) while staying test-suite friendly.
MEDIUM_SCALE = ScaleSpec(
    bytes_per_paper_gb=2 * MB,
    accesses_per_paper_gb=100_000,
    min_bytes=64 * MB,
    min_accesses_per_page=100,
)


def make_context(fast_mb=16, cap_mb=96, with_sampler=False,
                 load_period=50, cores=20, app_threads=20, seed=7):
    """A PolicyContext over a fresh small machine."""
    tiers = TieredMemory.build(dram_spec(fast_mb * MB), nvm_spec(cap_mb * MB))
    space = AddressSpace(tiers)
    tlb = TLB(TLBConfig(entries_4k=64, entries_2m=16, ways=4, sample_stride=4))
    migrator = MigrationEngine(space, tlb=tlb)
    sampler = None
    if with_sampler:
        sampler = PEBSSampler(SamplerConfig(load_period=load_period,
                                            store_period=10_000))
    machine = MachineSpec(
        fast_bytes=fast_mb * MB, capacity_bytes=cap_mb * MB,
        cores=cores, app_threads=app_threads,
    )
    return PolicyContext(
        space=space,
        tiers=tiers,
        migrator=migrator,
        tlb=tlb,
        machine=machine,
        rng=np.random.default_rng(seed),
        sampler=sampler,
    )


@pytest.fixture(autouse=True)
def _result_cache_in_tmpdir(request, tmp_path, monkeypatch):
    """Point the persistent result cache at a per-test tmpdir.

    Tests must never read or write a user's ``~/.cache/repro-memtis``;
    mark a test ``@pytest.mark.no_result_cache`` to disable the default
    cache entirely instead.
    """
    from repro.sim import cache as result_cache

    cache_dir = tmp_path / "result-cache"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(cache_dir))
    result_cache.configure(
        cache_dir=cache_dir,
        enabled=request.node.get_closest_marker("no_result_cache") is None,
    )
    yield
    result_cache.reset()


@pytest.fixture(autouse=True)
def _snapshot_store_in_tmpdir(tmp_path, monkeypatch):
    """Point the epoch-checkpoint store at a per-test tmpdir.

    Mirrors ``_result_cache_in_tmpdir``: tests must never touch a
    user's snapshot directory.
    """
    from repro import snapshot

    snap_dir = tmp_path / "snapshots"
    monkeypatch.setenv("REPRO_SNAPSHOT_DIR", str(snap_dir))
    snapshot.configure(snap_dir)
    yield
    snapshot.reset()


@pytest.fixture
def ctx():
    return make_context()


@pytest.fixture
def ctx_with_sampler():
    return make_context(with_sampler=True)


@pytest.fixture
def test_scale():
    return TEST_SCALE


@pytest.fixture(autouse=True)
def _no_helper_outlives_the_test():
    """Fail a test that leaves an event helper thread alive.

    ``Simulation.run`` joins its helper before it returns or raises;
    one left running would be inherited by the sweep and service
    supervisors' forks in an unknown state.
    """
    yield
    alive = [thread.name for thread in threading.enumerate()
             if thread.name == prefetch.THREAD_NAME]
    assert not alive, f"helper thread(s) outlived the test: {alive}"
