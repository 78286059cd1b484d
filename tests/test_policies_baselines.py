"""Behavioural tests for the six baseline policies."""

import numpy as np
import pytest

from repro.mem.pages import SUBPAGES_PER_HUGE
from repro.mem.tiers import FASTEST_TIER
from repro.pebs.events import AccessBatch
from repro.pebs.sampler import SampleBatch
from repro.policies.autonuma import AutoNUMAPolicy
from repro.policies.autotiering import AutoTieringPolicy
from repro.policies.base import BatchObservation
from repro.policies.hemem import HeMemPolicy
from repro.policies.multiclock import MultiClockPolicy
from repro.policies.nimble import NimblePolicy
from repro.policies.registry import POLICY_REGISTRY, make_policy, policy_names
from repro.policies.tiering08 import Tiering08Policy
from repro.policies.tpp import TPPPolicy

from conftest import make_context

MB = 1024 * 1024


def bind(policy, **ctx_kwargs):
    ctx = make_context(**ctx_kwargs)
    policy.bind(ctx)
    return ctx


def obs_for(vpns, now_ns=0.0, samples=None):
    vpns = np.asarray(vpns, dtype=np.int64)
    batch = AccessBatch.loads(vpns)
    unique, counts = np.unique(vpns, return_counts=True)
    return BatchObservation(batch=batch, unique_vpns=unique, counts=counts,
                            samples=samples, now_ns=now_ns, batch_wall_ns=1e6)


class TestRegistry:
    def test_all_names_construct(self):
        for name in policy_names():
            policy = make_policy(name)
            assert policy.name in (name, "memtis")  # variants share a class

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            make_policy("nope")

    def test_table1_traits_match_paper(self):
        assert make_policy("autonuma").traits.demotion_metric == "-"
        assert make_policy("tpp").traits.critical_path_migration == "promotion"
        assert make_policy("nimble").traits.critical_path_migration == "none"
        assert make_policy("memtis").traits.subpage_tracking is True
        assert make_policy("hemem").traits.subpage_tracking is False


class TestAutoNUMA:
    def test_scan_protects_then_fault_promotes_critically(self):
        policy = AutoNUMAPolicy(scan_period_ns=1e6, scan_fraction=1.0)
        ctx = bind(policy)
        region = ctx.space.alloc_region(
            2 * MB, preferred=1)
        policy.on_tick(now_ns=2e6)
        assert policy.protection_mask[region.base_vpn]
        ns = policy.on_hint_faults(np.array([region.base_vpn]))
        assert ns > 0  # critical-path promotion
        assert ctx.space.page_tier[region.base_vpn] == FASTEST_TIER
        assert not policy.protection_mask[region.base_vpn]
        assert ctx.migrator.stats.critical_path_ns > 0

    def test_no_promotion_when_fast_full(self):
        policy = AutoNUMAPolicy(scan_period_ns=1e6, scan_fraction=1.0)
        ctx = bind(policy, fast_mb=2)
        ctx.space.alloc_region(2 * MB, preferred=FASTEST_TIER)
        region = ctx.space.alloc_region(
            2 * MB, preferred=1)
        policy.on_tick(2e6)
        ns = policy.on_hint_faults(np.array([region.base_vpn]))
        # AutoNUMA has no demotion: the page stays put.
        assert ctx.space.page_tier[region.base_vpn] == 1

    def test_never_demotes(self):
        policy = AutoNUMAPolicy()
        ctx = bind(policy)
        ctx.space.alloc_region(8 * MB, preferred=FASTEST_TIER)
        for t in range(10):
            policy.on_tick(t * 1e8)
        assert ctx.migrator.stats.demoted_bytes == 0


class TestTPP:
    def test_promotes_on_second_fault(self):
        policy = TPPPolicy(scan_period_ns=1e6, scan_fraction=1.0)
        ctx = bind(policy)
        region = ctx.space.alloc_region(
            2 * MB, preferred=1)
        head = region.base_vpn
        policy.on_tick(2e6)
        policy.on_hint_faults(np.array([head]))
        assert ctx.space.page_tier[head] == 1  # 1st fault
        policy.on_tick(4e6)
        policy.on_hint_faults(np.array([head]))
        assert ctx.space.page_tier[head] == FASTEST_TIER  # 2nd fault

    def test_demotes_only_inactive(self):
        policy = TPPPolicy(scan_period_ns=1e6, scan_fraction=1.0,
                           free_headroom=0.5)
        ctx = bind(policy, fast_mb=4)
        region = ctx.space.alloc_region(
            4 * MB, preferred=FASTEST_TIER)
        # Everything referenced: the demotion daemon must stall.
        ctx.space.ref_bit[region.base_vpn : region.end_vpn] = True
        policy.on_tick(2e6)
        assert ctx.migrator.stats.demoted_bytes == 0
        # Second interval: nothing referenced since -> demotion proceeds.
        policy.on_tick(4e6)
        assert ctx.migrator.stats.demoted_bytes > 0


class TestTiering08:
    def test_refault_interval_gates_promotion(self):
        policy = Tiering08Policy(scan_period_ns=1e6, scan_fraction=1.0,
                                 refault_window_ns=5e6)
        ctx = bind(policy)
        region = ctx.space.alloc_region(
            2 * MB, preferred=1)
        head = region.base_vpn
        policy.on_tick(1e6)
        policy.on_hint_faults(np.array([head]))
        # Re-fault far outside the window: no promotion.
        policy.on_tick(100e6)
        policy.on_hint_faults(np.array([head]))
        assert ctx.space.page_tier[head] == 1
        # Two faults close together: promotion.
        policy.on_tick(102e6)
        policy.on_hint_faults(np.array([head]))
        assert ctx.space.page_tier[head] == FASTEST_TIER

    def test_promotion_rate_throttled(self):
        policy = Tiering08Policy(scan_period_ns=1e6, scan_fraction=1.0,
                                 refault_window_ns=1e9,
                                 promotion_rate_bytes_per_s=1.0)
        ctx = bind(policy)
        region = ctx.space.alloc_region(
            4 * MB, preferred=1)
        heads = [region.base_vpn, region.base_vpn + SUBPAGES_PER_HUGE]
        for t in (1e6, 2e6):
            policy.on_tick(t)
            policy.on_hint_faults(np.array(heads))
        assert policy.throttled > 0
        assert ctx.migrator.stats.promoted_bytes == 0


class TestNimble:
    def test_promotes_everything_referenced(self):
        policy = NimblePolicy(scan_period_ns=1e6)
        ctx = bind(policy)
        region = ctx.space.alloc_region(
            4 * MB, preferred=1)
        ctx.space.record_touch(
            np.arange(region.base_vpn, region.base_vpn + 2 * SUBPAGES_PER_HUGE)
        )
        policy.on_tick(2e6)
        assert policy.promotions == 2  # both referenced huge pages

    def test_scan_cost_charged_into_runtime(self):
        policy = NimblePolicy(scan_period_ns=1e6, scan_ns_per_page=100.0)
        ctx = bind(policy)
        ctx.space.alloc_region(8 * MB)
        policy.on_tick(2e6)
        assert policy.on_batch(obs_for([0])) > 0

    def test_exchanges_with_unreferenced_fast_pages(self):
        policy = NimblePolicy(scan_period_ns=1e6)
        ctx = bind(policy, fast_mb=4)
        cold = ctx.space.alloc_region(4 * MB, preferred=FASTEST_TIER)
        hot = ctx.space.alloc_region(
            2 * MB, preferred=1)
        ctx.space.record_touch(np.array([hot.base_vpn]))
        policy.on_tick(2e6)
        assert ctx.space.page_tier[hot.base_vpn] == FASTEST_TIER
        assert ctx.space.page_tier[cold.base_vpn] == 1


class TestMultiClock:
    def test_needs_two_consecutive_referenced_scans(self):
        policy = MultiClockPolicy(scan_period_ns=1e6)
        ctx = bind(policy)
        region = ctx.space.alloc_region(
            2 * MB, preferred=1)
        head = region.base_vpn
        ctx.space.record_touch(np.array([head]))
        policy.on_tick(1e6)
        assert ctx.space.page_tier[head] == 1
        ctx.space.record_touch(np.array([head]))
        policy.on_tick(2.5e6)
        assert ctx.space.page_tier[head] == FASTEST_TIER

    def test_streak_resets_when_idle(self):
        policy = MultiClockPolicy(scan_period_ns=1e6)
        ctx = bind(policy)
        region = ctx.space.alloc_region(
            2 * MB, preferred=1)
        head = region.base_vpn
        ctx.space.record_touch(np.array([head]))
        policy.on_tick(1e6)
        policy.on_tick(2.5e6)  # not referenced this interval
        ctx.space.record_touch(np.array([head]))
        policy.on_tick(4e6)
        assert ctx.space.page_tier[head] == 1


class TestHeMem:
    def _sampled(self, vpns):
        vpns = np.asarray(vpns, dtype=np.int64)
        return SampleBatch(vpns, np.zeros(len(vpns), dtype=bool))

    def test_static_hot_threshold_promotes(self):
        policy = HeMemPolicy(hot_threshold=4, migrate_period_ns=1e6)
        ctx = bind(policy)
        region = ctx.space.alloc_region(
            2 * MB, preferred=1)
        head = region.base_vpn
        policy.on_batch(obs_for([head], samples=self._sampled([head] * 4)))
        policy.on_tick(2e6)
        assert ctx.space.page_tier[head] == FASTEST_TIER

    def test_cooling_threshold_halves_all_counts(self):
        policy = HeMemPolicy(hot_threshold=50, cooling_threshold=6)
        ctx = bind(policy)
        region = ctx.space.alloc_region(2 * MB)
        head = region.base_vpn
        policy.on_batch(obs_for([head], samples=self._sampled([head] * 6)))
        assert policy.coolings == 1
        assert policy._count[head] == 3

    def test_contention_only_when_saturated(self):
        saturated = HeMemPolicy()
        bind(saturated, cores=20, app_threads=20)
        assert saturated.cpu_contention_factor() > 1.0
        spare = HeMemPolicy()
        bind(spare, cores=20, app_threads=16)
        assert spare.cpu_contention_factor() == 1.0

    def test_small_allocations_pinned_in_dram(self):
        policy = HeMemPolicy(small_alloc_fraction=0.05)
        ctx = bind(policy, fast_mb=16, cap_mb=96)
        small = ctx.space.alloc_region(
            2 * MB, preferred=policy.choose_alloc_tier(2 * MB))
        policy.on_region_alloc(small)
        assert policy.overallocated_bytes == 2 * MB
        assert policy._pinned[small.base_vpn]
        # Pinned pages are never demotion victims.
        policy._count[small.base_vpn] = 0
        policy._demote_cold(2 * MB)
        assert ctx.space.page_tier[small.base_vpn] == FASTEST_TIER

    def test_anti_thrashing_halts_migration(self):
        policy = HeMemPolicy(hot_threshold=1, migrate_period_ns=1e6)
        ctx = bind(policy, fast_mb=2, cap_mb=96)
        region = ctx.space.alloc_region(
            8 * MB, preferred=1)
        heads = [region.base_vpn + i * SUBPAGES_PER_HUGE for i in range(4)]
        policy.on_batch(obs_for(heads, samples=self._sampled(heads * 2)))
        policy.on_tick(2e6)
        # Classified hot set (8 MB) exceeds DRAM (2 MB): halted.
        assert policy.halted_ticks == 1
        assert ctx.migrator.stats.promoted_bytes == 0


class TestSharedMechanisms:
    """Edge cases of the TieringPolicy migration helpers every zoo
    policy moves pages through."""

    KB4 = 4096

    def _policy(self, **ctx_kwargs):
        policy = TPPPolicy()
        ctx = bind(policy, **ctx_kwargs)
        return policy, ctx

    def test_demote_in_order_skips_subpages_of_a_moved_huge_mapping(self):
        policy, ctx = self._policy()
        huge = ctx.space.alloc_region(2 * MB, preferred=0)
        base = ctx.space.alloc_region(2 * MB, thp=False,
                                      preferred=0)
        # TPP and Tiering-0.8 pass subpage vpns, not heads.
        vpns = np.concatenate([
            np.arange(huge.base_vpn, huge.end_vpn),
            np.arange(base.base_vpn, base.base_vpn + 3),
        ])
        moved = policy.demote_in_order(vpns, 64 * MB)
        assert moved == 1 + 3
        assert (ctx.space.page_tier[huge.base_vpn : huge.end_vpn] == 1).all()
        assert ctx.migrator.stats.demoted_bytes == 2 * MB + 3 * self.KB4

    @pytest.mark.parametrize("need,expected", [
        (0, 0), (3 * KB4, 3), (3 * KB4 + 1, 4),
    ])
    def test_demote_in_order_stops_at_the_byte_target(self, need, expected):
        policy, ctx = self._policy()
        base = ctx.space.alloc_region(2 * MB, thp=False,
                                      preferred=0)
        vpns = np.arange(base.base_vpn, base.end_vpn)
        assert policy.demote_in_order(vpns, need) == expected
        assert int(np.count_nonzero(ctx.space.page_tier[vpns] == 1)) == expected

    def test_promote_with_room_gives_make_room_one_chance(self):
        policy, ctx = self._policy(fast_mb=2)
        ctx.space.alloc_region(2 * MB, preferred=0)
        cap = ctx.space.alloc_region(2 * MB, preferred=1)
        asked = []
        assert not policy.promote_with_room(cap.base_vpn, asked.append)
        assert asked == [2 * MB]
        assert ctx.space.page_tier[cap.base_vpn] == 1

        def make_room(nbytes):
            policy.demote_in_order(policy.fast_heads(), nbytes)

        assert policy.promote_with_room(cap.base_vpn, make_room)
        assert ctx.space.page_tier[cap.base_vpn] == FASTEST_TIER

    def test_protect_scan_window_wraps_around_its_pool(self):
        policy, _ = self._policy()
        pool = np.arange(100, 1100)
        policy._scan_cursor = 700
        policy.protect_scan_window(pool, 0.6)  # window = 600 of 1000
        armed = np.flatnonzero(policy.protection_mask)
        expected = np.concatenate([np.arange(100, 400), np.arange(800, 1100)])
        assert np.array_equal(armed, expected)
        assert policy._scan_cursor == 300

    def test_protect_scan_window_on_an_empty_pool_is_a_no_op(self):
        policy, _ = self._policy()
        policy._scan_cursor = 5
        policy.protect_scan_window(np.empty(0, dtype=np.int64), 0.5)
        assert policy._scan_cursor == 5
        assert not policy.protection_mask.any()

    def test_unprotect_mapping_clears_a_whole_huge_mapping_one_base_page(self):
        policy, ctx = self._policy()
        huge = ctx.space.alloc_region(2 * MB, preferred=1)
        base = ctx.space.alloc_region(2 * MB, thp=False,
                                      preferred=1)
        policy.protection_mask[:] = True
        assert policy.unprotect_mapping(huge.base_vpn + 7) == huge.base_vpn
        assert not policy.protection_mask[huge.base_vpn : huge.end_vpn].any()
        assert policy.unprotect_mapping(base.base_vpn + 7) == base.base_vpn + 7
        cleared = np.flatnonzero(~policy.protection_mask[base.base_vpn : base.end_vpn])
        assert cleared.tolist() == [7]
