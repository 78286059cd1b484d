"""Workload generators: bounds, determinism, Table 2 shape properties."""

import numpy as np
import pytest

from repro.pebs.events import AccessBatch
from repro.sim.machine import MachineSpec
from repro.policies.static import AllCapacityPolicy
from repro.sim.engine import Simulation
from repro.workloads.base import AccessEvent, AllocEvent, FreeEvent
from repro.workloads.distributions import (
    ScatterMap,
    ZipfSampler,
    chunked,
    mixture_pick,
    sequential_offsets,
)
from repro.workloads.registry import (
    PAPER_ORDER,
    WORKLOAD_REGISTRY,
    make_workload,
    workload_names,
)

from conftest import TEST_SCALE

MB = 1024 * 1024


class TestDistributions:
    def test_zipf_in_range(self):
        sampler = ZipfSampler(1000, alpha=0.99)
        rng = np.random.default_rng(0)
        ranks = sampler.sample(rng, 10_000)
        assert ranks.min() >= 0
        assert ranks.max() < 1000

    def test_zipf_rank0_most_popular(self):
        sampler = ZipfSampler(1000, alpha=1.0)
        rng = np.random.default_rng(0)
        ranks = sampler.sample(rng, 50_000)
        counts = np.bincount(ranks, minlength=1000)
        assert counts[0] > counts[10] > counts[500]

    def test_zipf_alpha_zero_uniform(self):
        sampler = ZipfSampler(100, alpha=0.0)
        rng = np.random.default_rng(0)
        counts = np.bincount(sampler.sample(rng, 100_000), minlength=100)
        assert counts.min() > 700  # roughly uniform (expected 1000)

    def test_zipf_validation(self):
        with pytest.raises(ValueError):
            ZipfSampler(0)
        with pytest.raises(ValueError):
            ZipfSampler(10, alpha=-1)

    def test_scatter_linear_identity(self):
        smap = ScatterMap(100, mode="linear")
        ranks = np.arange(10)
        assert np.array_equal(smap.apply(ranks), ranks)

    def test_scatter_shift_rotates(self):
        smap = ScatterMap(100, mode="linear", shift=0.5)
        assert list(smap.apply(np.array([0, 1]))) == [50, 51]
        assert smap.apply(np.array([60]))[0] == 10  # wraps

    def test_scatter_permutation_is_bijection(self):
        smap = ScatterMap(1000, mode="scatter")
        mapped = smap.apply(np.arange(1000))
        assert len(np.unique(mapped)) == 1000

    def test_scatter_spreads_hot_ranks(self):
        """Hot ranks must land across many huge pages (Fig. 3b shape)."""
        n = 512 * 64
        smap = ScatterMap(n, mode="scatter")
        hot = smap.apply(np.arange(512))  # hottest 512 ranks
        hpns = np.unique(hot >> 9)
        assert len(hpns) > 32  # spread over most huge pages

    def test_clustered_mode(self):
        smap = ScatterMap(1024, mode="clustered", cluster_pages=4)
        mapped = smap.apply(np.arange(1024))
        assert len(np.unique(mapped)) == 1024
        # Consecutive ranks within a cluster stay adjacent.
        assert mapped[1] == mapped[0] + 1

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            ScatterMap(10, mode="bogus")

    def test_sequential_wraps(self):
        offsets = sequential_offsets(98, 5, 100)
        assert list(offsets) == [98, 99, 0, 1, 2]

    def test_chunked_sums(self):
        assert sum(chunked(1000, 300)) == 1000
        assert list(chunked(0, 10)) == []

    def test_mixture_pick_fractions(self):
        rng = np.random.default_rng(0)
        picks = mixture_pick(rng, 100_000, [0.7, 0.2, 0.1])
        fractions = np.bincount(picks, minlength=3) / 100_000
        assert fractions[0] == pytest.approx(0.7, abs=0.02)
        assert fractions[2] == pytest.approx(0.1, abs=0.02)


class TestRegistry:
    def test_all_eight_registered(self):
        assert len(PAPER_ORDER) == 8
        assert set(workload_names()) == set(WORKLOAD_REGISTRY)

    def test_unknown_workload(self):
        with pytest.raises(KeyError):
            make_workload("nope", TEST_SCALE)


@pytest.mark.parametrize("name", PAPER_ORDER)
class TestEveryWorkload:
    def test_generates_valid_events(self, name):
        workload = make_workload(name, TEST_SCALE)
        rng = np.random.default_rng(0)
        live = {}
        accesses = 0
        for event in workload.events(rng):
            if isinstance(event, AllocEvent):
                assert event.key not in live
                live[event.key] = event.nbytes
            elif isinstance(event, FreeEvent):
                del live[event.key]
            elif isinstance(event, AccessEvent):
                for key, batch in event.segments:
                    assert key in live
                    limit = -(-live[key] // 4096)
                    if len(batch):
                        assert int(batch.vpn.max()) < limit + 512
                        assert int(batch.vpn.min()) >= 0
                    accesses += len(batch)
            if accesses > 150_000:
                break
        assert accesses > 0

    def test_deterministic(self, name):
        workload = make_workload(name, TEST_SCALE)

        def first_access_batch(seed):
            for event in workload.events(np.random.default_rng(seed)):
                if isinstance(event, AccessEvent):
                    return event.segments[0][1].vpn.copy()

        assert np.array_equal(first_access_batch(5), first_access_batch(5))

    def test_runs_end_to_end_with_expected_rss_and_rhp(self, name):
        workload = make_workload(name, TEST_SCALE)
        machine = MachineSpec.from_ratio(workload.total_bytes, ratio="1:2")
        sim = Simulation(workload, AllCapacityPolicy(), machine.collapse_to_slowest())
        result = sim.run(max_accesses=120_000)
        cls = WORKLOAD_REGISTRY[name]
        # RSS within 25% of the scaled target.
        assert result.final_rss_bytes == pytest.approx(
            workload.total_bytes, rel=0.25
        )
        # Huge page ratio within 6 points of the paper's RHP.
        assert result.huge_page_ratio == pytest.approx(cls.paper_rhp, abs=0.06)


class TestShapeProperties:
    def test_btree_has_bloat(self):
        """Btree touches far less than it maps (§6.2.5)."""
        workload = make_workload("btree", TEST_SCALE)
        machine = MachineSpec.from_ratio(workload.total_bytes, ratio="1:2")
        sim = Simulation(workload, AllCapacityPolicy(), machine.collapse_to_slowest())
        result = sim.run()
        assert result.final_touched_bytes < 0.6 * result.final_rss_bytes

    def test_bwaves_frees_scratch(self):
        workload = make_workload("603.bwaves", TEST_SCALE)
        rng = np.random.default_rng(0)
        frees = sum(1 for e in workload.events(rng) if isinstance(e, FreeEvent))
        assert frees == workload.GENERATIONS
