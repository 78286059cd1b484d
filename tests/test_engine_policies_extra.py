"""Additional engine/policy integration coverage."""

import numpy as np
import pytest

from repro.mem.tiers import FASTEST_TIER
from repro.pebs.events import AccessBatch
from repro.policies.base import TieringPolicy
from repro.policies.registry import make_policy
from repro.policies.static import AllFastPolicy
from repro.sim.engine import Simulation
from repro.sim.machine import MachineSpec
from repro.workloads.base import AccessEvent, AllocEvent, Workload

MB = 1024 * 1024


class OneRegionWorkload(Workload):
    name = "one-region"
    paper_rss_gb = 0.01

    def __init__(self, batches=5, nbytes=4 * MB):
        super().__init__(nbytes, batches * 1000)
        self.batches = batches
        self.nbytes = nbytes

    def events(self, rng):
        yield AllocEvent("r", self.nbytes)
        pages = self.nbytes // 4096
        for _ in range(self.batches):
            offsets = rng.integers(0, pages, 1000, dtype=np.int64)
            yield AccessEvent.single("r", AccessBatch.loads(offsets))


class ContentionPolicy(AllFastPolicy):
    name = "contention"

    def cpu_contention_factor(self) -> float:
        return 1.5


class TestEngineMechanics:
    def test_contention_factor_inflates_runtime(self):
        machine = MachineSpec(fast_bytes=8 * MB, capacity_bytes=64 * MB)
        plain = Simulation(OneRegionWorkload(), AllFastPolicy(), machine).run()
        contended = Simulation(OneRegionWorkload(), ContentionPolicy(),
                               machine).run()
        assert contended.metrics.contention_extra_ns > 0
        assert contended.runtime_ns == pytest.approx(
            1.5 * plain.runtime_ns, rel=0.01
        )

    def test_timeline_snapshots_emitted(self):
        machine = MachineSpec(fast_bytes=8 * MB, capacity_bytes=64 * MB)
        sim = Simulation(OneRegionWorkload(batches=50), AllFastPolicy(),
                         machine)
        sim.metrics.timeline_interval_ns = 1.0
        result = sim.run()
        assert len(result.metrics.series) >= 49

    def test_pebs_sampler_attached_only_when_requested(self):
        machine = MachineSpec(fast_bytes=8 * MB, capacity_bytes=64 * MB)
        static_sim = Simulation(OneRegionWorkload(), AllFastPolicy(), machine)
        assert static_sim.sampler is None
        memtis_sim = Simulation(OneRegionWorkload(), make_policy("memtis"),
                                machine)
        assert memtis_sim.sampler is not None
        result = memtis_sim.run()
        assert result.sampler_stats["total_events"] == 5000

    def test_result_summary_keys(self):
        machine = MachineSpec(fast_bytes=8 * MB, capacity_bytes=64 * MB)
        result = Simulation(OneRegionWorkload(), AllFastPolicy(), machine).run()
        summary = result.summary()
        for key in ("runtime_ms", "fast_hit_ratio", "traffic_mb", "rss_mb",
                    "tlb_miss_ratio"):
            assert key in summary

    def test_throughput_property(self):
        machine = MachineSpec(fast_bytes=8 * MB, capacity_bytes=64 * MB)
        result = Simulation(OneRegionWorkload(), AllFastPolicy(), machine).run()
        assert result.throughput_maps > 0


class TestAllocPlacement:
    def test_autotiering_sends_new_data_to_capacity_when_dram_low(self):
        policy = make_policy("autotiering")
        machine = MachineSpec(fast_bytes=8 * MB, capacity_bytes=64 * MB)
        sim = Simulation(OneRegionWorkload(nbytes=8 * MB), policy, machine)
        sim.run()
        # DRAM fully occupied (below the allocation watermark): fresh
        # allocations are directed to the capacity tier -- the §6.2.6
        # short-lived-data behaviour.
        assert sim.tiers.fast.free_bytes == 0
        assert policy.choose_alloc_tier(2 * MB) == 1

    def test_default_policy_prefers_fast(self):
        policy = AllFastPolicy()
        machine = MachineSpec(fast_bytes=8 * MB, capacity_bytes=64 * MB)
        sim = Simulation(OneRegionWorkload(), policy, machine)
        sim.run()
        assert policy.choose_alloc_tier(2 * MB) == FASTEST_TIER
