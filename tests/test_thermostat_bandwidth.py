"""Thermostat baseline and the opt-in bandwidth-contention model."""

import numpy as np
import pytest

from repro.mem.pages import SUBPAGES_PER_HUGE
from repro.mem.tiers import FASTEST_TIER
from repro.policies.registry import make_policy
from repro.policies.thermostat import ThermostatPolicy
from repro.sim.cost import CostModel
from repro.sim.machine import MachineSpec
from repro.sim.runner import RunSpec

from conftest import TEST_SCALE, make_context

MB = 1024 * 1024


class TestThermostat:
    def test_registered(self):
        assert isinstance(make_policy("thermostat"), ThermostatPolicy)

    def test_poisoning_rotates_and_measures(self):
        policy = ThermostatPolicy(sample_fraction=0.5, poison_period_ns=1e6,
                                  migrate_period_ns=1e9)
        ctx = make_context()
        policy.bind(ctx)
        ctx.space.alloc_region(8 * MB)
        policy.on_tick(1e6)  # arm the first poison set
        assert policy.protection_mask.any()
        poisoned_head = int(policy._poisoned_hpns[0]) << 9
        policy.on_hint_faults(np.array([poisoned_head + 7] * 3))
        policy.on_tick(2.5e6)  # window closes, rates folded in
        assert policy._measured[poisoned_head >> 9]
        assert policy._rate[poisoned_head >> 9] > 0

    def test_poison_stays_armed_within_window(self):
        """Every access to a poisoned page faults (the §7 criticism)."""
        policy = ThermostatPolicy(sample_fraction=1.0, poison_period_ns=1e6,
                                  migrate_period_ns=1e9)
        ctx = make_context()
        policy.bind(ctx)
        region = ctx.space.alloc_region(2 * MB)
        policy.on_tick(1e6)
        assert policy.protection_mask[region.base_vpn]
        policy.on_hint_faults(np.array([region.base_vpn]))
        # Unlike NUMA hints, the poison is NOT cleared by a fault.
        assert policy.protection_mask[region.base_vpn]

    def test_idle_pages_demoted_hot_kept(self):
        policy = ThermostatPolicy(sample_fraction=1.0, poison_period_ns=1e6,
                                  migrate_period_ns=2e6)
        ctx = make_context(fast_mb=4)
        policy.bind(ctx)
        region = ctx.space.alloc_region(
            4 * MB, preferred=FASTEST_TIER)
        hot_head = region.base_vpn
        policy.on_tick(1e6)
        policy.on_hint_faults(np.array([hot_head] * 10))
        policy.on_tick(2.1e6)  # fold window + migrate
        policy.on_tick(4.2e6)
        # The never-faulting huge page left DRAM; the hot one stayed.
        idle_head = region.base_vpn + SUBPAGES_PER_HUGE
        assert ctx.space.page_tier[hot_head] == FASTEST_TIER
        assert ctx.space.page_tier[idle_head] == 1

    def test_end_to_end(self):
        sim = RunSpec("silo", "thermostat", ratio="1:8",
                      scale=TEST_SCALE).build()
        result = sim.run(max_accesses=200_000)
        assert result.metrics.fault_ns > 0  # poisoning is never free
        sim.space.check_consistency()


class TestBandwidthModel:
    def _bound(self, enabled):
        model = CostModel(bandwidth_model=enabled, mlp_factor=1.0)
        machine = MachineSpec(fast_bytes=8 * MB, capacity_bytes=64 * MB)
        return model.bind(machine.build_tiers())

    def test_disabled_by_default(self):
        assert CostModel().bandwidth_model is False

    def test_inflates_capacity_heavy_batches(self):
        tiers = np.ones(1000, dtype=np.int8)
        stores = np.zeros(1000, dtype=bool)
        plain = self._bound(False).memory_ns(tiers, stores)
        contended = self._bound(True).memory_ns(tiers, stores)
        assert contended > plain

    def test_fast_only_batches_unaffected(self):
        tiers = np.zeros(1000, dtype=np.int8)
        stores = np.zeros(1000, dtype=bool)
        assert self._bound(True).memory_ns(tiers, stores) == pytest.approx(
            self._bound(False).memory_ns(tiers, stores)
        )

    def test_utilization_capped(self):
        """Even infinite demand cannot push rho past the cap."""
        bound = self._bound(True)
        tiers = np.ones(100, dtype=np.int8)
        stores = np.zeros(100, dtype=bool)
        base = self._bound(False).memory_ns(tiers, stores)
        contended = bound.memory_ns(tiers, stores)
        max_inflation = 1.0 / (1.0 - bound.model.max_utilization)
        assert contended <= base * max_inflation + 1e-6

    def test_widens_tiering_gap_end_to_end(self):
        """With contention on, good placement pays even more."""
        from repro.policies.static import AllCapacityPolicy, AllFastPolicy
        from repro.sim.engine import Simulation
        from repro.workloads.registry import make_workload

        def run(policy, enabled):
            workload = make_workload("silo", TEST_SCALE)
            machine = MachineSpec.from_ratio(workload.total_bytes, ratio="1:2")
            sim = Simulation(workload, policy, machine.collapse_to_fastest()
                             if isinstance(policy, AllFastPolicy)
                             else machine.collapse_to_slowest(),
                             cost_model=CostModel(bandwidth_model=enabled))
            return sim.run(max_accesses=150_000).runtime_ns

        gap_plain = run(AllCapacityPolicy(), False) / run(AllFastPolicy(), False)
        gap_contended = run(AllCapacityPolicy(), True) / run(AllFastPolicy(), True)
        assert gap_contended > gap_plain
