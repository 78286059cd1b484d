"""Thermostat baseline."""

import numpy as np

from repro.mem.pages import SUBPAGES_PER_HUGE
from repro.mem.tiers import FASTEST_TIER
from repro.policies.registry import make_policy
from repro.policies.thermostat import ThermostatPolicy
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

