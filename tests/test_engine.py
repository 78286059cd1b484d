"""Simulation engine: cost accounting, events, determinism."""

import numpy as np
import pytest

from repro.mem.tiers import FASTEST_TIER
from repro.pebs.events import AccessBatch
from repro.policies.static import AllCapacityPolicy, AllFastPolicy
from repro.sim.cost import CostModel
from repro.sim.engine import Simulation
from repro.sim.machine import MachineSpec
from repro.workloads.base import AccessEvent, AllocEvent, FreeEvent, Workload

MB = 1024 * 1024


class ScriptedWorkload(Workload):
    """Replays an explicit event list (for precise engine tests)."""

    name = "scripted"
    paper_rss_gb = 0.01

    def __init__(self, script, total_bytes=8 * MB, total_accesses=1000):
        super().__init__(total_bytes, total_accesses)
        self.script = script

    def events(self, rng):
        yield from self.script


def machine(fast_mb=8, cap_mb=64):
    return MachineSpec(fast_bytes=fast_mb * MB, capacity_bytes=cap_mb * MB)


def access(key, offsets, stores=None):
    offsets = np.asarray(offsets, dtype=np.int64)
    if stores is None:
        stores = np.zeros(len(offsets), dtype=bool)
    return AccessEvent.single(key, AccessBatch(offsets, np.asarray(stores)))


class TestEvents:
    def test_alloc_access_free_cycle(self):
        script = [
            AllocEvent("a", 2 * MB),
            access("a", [0, 1, 2]),
            FreeEvent("a"),
            AllocEvent("b", 2 * MB),
            access("b", [5]),
        ]
        sim = Simulation(ScriptedWorkload(script), AllFastPolicy(), machine())
        result = sim.run()
        assert result.metrics.total_accesses == 4
        sim.space.check_consistency()

    def test_access_to_unknown_region_raises(self):
        sim = Simulation(
            ScriptedWorkload([access("ghost", [0])]), AllFastPolicy(), machine()
        )
        with pytest.raises(KeyError):
            sim.run()

    def test_access_beyond_region_raises(self):
        script = [AllocEvent("a", 2 * MB), access("a", [512])]
        sim = Simulation(ScriptedWorkload(script), AllFastPolicy(), machine())
        with pytest.raises(IndexError):
            sim.run()

    def test_double_alloc_raises(self):
        script = [AllocEvent("a", 2 * MB), AllocEvent("a", 2 * MB)]
        sim = Simulation(ScriptedWorkload(script), AllFastPolicy(), machine())
        with pytest.raises(ValueError):
            sim.run()

    def test_free_unknown_raises(self):
        sim = Simulation(
            ScriptedWorkload([FreeEvent("a")]), AllFastPolicy(), machine()
        )
        with pytest.raises(KeyError):
            sim.run()

    def test_max_accesses_budget(self):
        script = [AllocEvent("a", 2 * MB)] + [access("a", list(range(100)))] * 10
        sim = Simulation(ScriptedWorkload(script), AllFastPolicy(), machine())
        result = sim.run(max_accesses=250)
        assert 250 <= result.metrics.total_accesses <= 300

    def test_interleave_shuffles(self):
        event = AccessEvent(
            [("a", AccessBatch.loads(np.arange(64))),
             ("b", AccessBatch.loads(np.arange(64)))],
            interleave=True,
        )
        script = [AllocEvent("a", 2 * MB), AllocEvent("b", 2 * MB)]
        sim = Simulation(ScriptedWorkload(script), AllFastPolicy(), machine())
        sim.run()  # performs the allocations
        batch = sim._prepare_batch(event)
        assert len(batch) == 128
        # Shuffled: not all of region a's accesses first.
        region_a_end = sim._regions["a"].end_vpn
        first_half = batch.vpn[:64]
        assert np.any(first_half >= region_a_end)


class TestCostAccounting:
    def test_capacity_tier_slower(self):
        script = [AllocEvent("a", 4 * MB), access("a", list(range(512)) * 4)]
        fast = Simulation(ScriptedWorkload(script), AllFastPolicy(),
                          machine()).run()
        slow = Simulation(ScriptedWorkload(script), AllCapacityPolicy(),
                          machine()).run()
        assert slow.metrics.mem_ns > 2 * fast.metrics.mem_ns
        assert fast.fast_hit_ratio == 1.0
        assert slow.fast_hit_ratio == 0.0

    def test_stores_cost_more_on_nvm(self):
        loads = [AllocEvent("a", 2 * MB), access("a", [0] * 100)]
        stores = [AllocEvent("a", 2 * MB),
                  access("a", [0] * 100, stores=[True] * 100)]
        r_loads = Simulation(ScriptedWorkload(loads), AllCapacityPolicy(),
                             machine()).run()
        r_stores = Simulation(ScriptedWorkload(stores), AllCapacityPolicy(),
                              machine()).run()
        assert r_stores.metrics.mem_ns > r_loads.metrics.mem_ns

    def test_thp_reduces_translation_cost(self):
        rng = np.random.default_rng(0)
        offsets = rng.integers(0, 8 * 512, 20_000)
        script = [AllocEvent("a", 16 * MB), access("a", offsets)]
        thp = Simulation(ScriptedWorkload(script), AllFastPolicy(),
                         machine(fast_mb=32)).run()
        base = Simulation(ScriptedWorkload(script), AllFastPolicy(),
                          machine(fast_mb=32), force_base_pages=True).run()
        assert thp.metrics.walk_ns < base.metrics.walk_ns
        assert thp.tlb.miss_ratio < base.tlb.miss_ratio

    def test_runtime_is_sum_of_components(self):
        script = [AllocEvent("a", 2 * MB), access("a", [0, 1, 2] * 10)]
        result = Simulation(ScriptedWorkload(script), AllFastPolicy(),
                            machine()).run()
        m = result.metrics
        assert m.runtime_ns == pytest.approx(
            m.mem_ns + m.compute_ns + m.walk_ns + m.fault_ns
            + m.critical_policy_ns + m.contention_extra_ns
        )

    def test_demand_fault_remaps_freed_subpage(self):
        """Access to a split-freed subpage demand-maps a fresh page."""
        from repro.core.policy import MemtisPolicy

        script = [AllocEvent("a", 2 * MB), access("a", [0])]
        sim = Simulation(ScriptedWorkload(script), MemtisPolicy(), machine())
        sim.run()
        region = sim._regions["a"]
        hpn = region.base_vpn >> 9
        tiers = [None] * 4 + [1] * 508
        sim.space.split_huge(hpn, tiers)
        sim.policy.ksampled.on_split(
            hpn, np.array([False] * 4 + [True] * 508)
        )
        sim._process_batch(AccessBatch.loads(
            np.array([region.base_vpn + 1])
        ))
        assert sim.space.page_tier[region.base_vpn + 1] >= 0
        assert sim.metrics.fault_ns > 0
        sim.space.check_consistency()


class TestDeterminism:
    def test_same_seed_same_result(self):
        def build():
            from repro.workloads.silo import SiloWorkload

            return Simulation(
                SiloWorkload(total_bytes=48 * MB, total_accesses=200_000),
                AllFastPolicy(), machine(fast_mb=64, cap_mb=64), seed=9,
            )

        a = build().run()
        b = build().run()
        assert a.runtime_ns == b.runtime_ns
        assert a.metrics.total_fast_hits == b.metrics.total_fast_hits

    def test_different_seed_differs(self):
        from repro.workloads.silo import SiloWorkload

        def build(seed):
            return Simulation(
                SiloWorkload(total_bytes=48 * MB, total_accesses=200_000),
                AllFastPolicy(), machine(fast_mb=64, cap_mb=64), seed=seed,
            )

        assert build(1).run().runtime_ns != build(2).run().runtime_ns
