"""Migration engine: costs, traffic, critical-vs-background split."""

import numpy as np
import pytest

from repro.mem.address_space import AddressSpace
from repro.mem.migration import (
    MigrationCostParams,
    MigrationEngine,
    MigrationStats,
)
from repro.mem.pages import BASE_PAGE_SIZE, HUGE_PAGE_SIZE, SUBPAGES_PER_HUGE
from repro.mem.tiers import (
    FASTEST_TIER,
    OutOfMemoryError,
    TieredMemory,
    cxl_spec,
    dram_spec,
    nvm_spec,
    remote_spec,
)
from repro.mem.tlb import TLB, TLBConfig

MB = 1024 * 1024


def setup(fast_mb=16, cap_mb=64):
    tiers = TieredMemory.build(dram_spec(fast_mb * MB), nvm_spec(cap_mb * MB))
    space = AddressSpace(tiers)
    tlb = TLB(TLBConfig(entries_4k=16, entries_2m=8, ways=4, sample_stride=1))
    engine = MigrationEngine(space, tlb=tlb)
    return space, tlb, engine


def setup_ntier(*tier_mb):
    """An N-tier machine; ``tier_mb[0]`` is DRAM, the rest follow in order."""
    builders = [dram_spec, cxl_spec, nvm_spec, remote_spec]
    specs = [builders[i](mb * MB) for i, mb in enumerate(tier_mb)]
    tiers = TieredMemory.build(*specs)
    space = AddressSpace(tiers)
    engine = MigrationEngine(space)
    return space, engine


class TestSinglePageMoves:
    def test_base_migration_accounts_traffic_and_cost(self):
        space, _tlb, engine = setup()
        region = space.alloc_region(2 * MB, thp=False,
                                    preferred=1)
        ns = engine.migrate_base(region.base_vpn, FASTEST_TIER)
        assert ns > 0
        assert engine.stats.promoted_bytes == BASE_PAGE_SIZE
        assert engine.stats.promoted_pages == 1
        assert engine.stats.background_ns == ns
        assert engine.stats.critical_path_ns == 0

    def test_huge_costs_more_than_base(self):
        space, _tlb, engine = setup()
        huge_region = space.alloc_region(
            2 * MB, thp=True, preferred=1)
        base_region = space.alloc_region(
            2 * MB, thp=False, preferred=1)
        ns_huge = engine.migrate_huge(huge_region.base_vpn >> 9, FASTEST_TIER)
        ns_base = engine.migrate_base(base_region.base_vpn, FASTEST_TIER)
        # The 2 MiB copy dominates: much costlier than one 4 KiB move,
        # though fixed per-page/shootdown overheads soften the 512x.
        assert ns_huge > 20 * ns_base

    def test_critical_flag_routes_cost(self):
        space, _tlb, engine = setup()
        region = space.alloc_region(2 * MB, thp=False,
                                    preferred=1)
        ns = engine.migrate_base(region.base_vpn, FASTEST_TIER, critical=True)
        assert engine.stats.critical_path_ns == ns
        assert engine.stats.background_ns == 0

    def test_noop_when_already_there(self):
        space, _tlb, engine = setup()
        region = space.alloc_region(2 * MB, preferred=FASTEST_TIER)
        assert engine.migrate_huge(region.base_vpn >> 9, FASTEST_TIER) == 0.0
        assert engine.stats.traffic_bytes == 0

    def test_migrate_page_dispatches_on_shape(self):
        space, _tlb, engine = setup()
        region = space.alloc_region(2 * MB, thp=True,
                                    preferred=1)
        engine.migrate_page(region.base_vpn + 17, FASTEST_TIER)
        assert engine.stats.promoted_bytes == HUGE_PAGE_SIZE

    def test_shootdown_on_migration(self):
        space, tlb, engine = setup()
        region = space.alloc_region(2 * MB, preferred=FASTEST_TIER)
        engine.migrate_huge(region.base_vpn >> 9, 1)
        assert tlb.stats.shootdowns == 1


class TestSplitCollapse:
    def test_split_accounting(self):
        space, tlb, engine = setup()
        region = space.alloc_region(2 * MB, preferred=FASTEST_TIER)
        hpn = region.base_vpn >> 9
        tiers = ([FASTEST_TIER] * 100 + [None] * 12
                 + [1] * (SUBPAGES_PER_HUGE - 112))
        ns = engine.split_huge(hpn, tiers)
        assert ns > 0
        assert engine.stats.splits == 1
        assert engine.stats.split_freed_bytes == 12 * BASE_PAGE_SIZE
        assert engine.stats.split_migrated_bytes == (
            (SUBPAGES_PER_HUGE - 112) * BASE_PAGE_SIZE
        )
        assert tlb.stats.shootdowns == 1

    def test_collapse_accounting(self):
        space, _tlb, engine = setup()
        region = space.alloc_region(2 * MB, preferred=FASTEST_TIER)
        hpn = region.base_vpn >> 9
        engine.split_huge(hpn, [1] * SUBPAGES_PER_HUGE)
        ns = engine.collapse_huge(hpn, FASTEST_TIER)
        assert ns > 0
        assert engine.stats.collapses == 1

    def test_migrate_many(self):
        space, _tlb, engine = setup()
        region = space.alloc_region(2 * MB, thp=False,
                                    preferred=1)
        vpns = np.arange(region.base_vpn, region.base_vpn + 10)
        total = engine.migrate_many(vpns, FASTEST_TIER)
        assert total > 0
        assert engine.stats.promoted_pages == 10


class TestCostParams:
    def test_copy_time_scales_with_bandwidth(self):
        slow = MigrationCostParams(copy_bandwidth_gbps=1.0)
        fast = MigrationCostParams(copy_bandwidth_gbps=10.0)
        assert slow.copy_ns(MB) == pytest.approx(10 * fast.copy_ns(MB))


class TestCopyFreeAndSideCopy:
    def test_copy_free_remap_charges_no_copy_or_traffic(self):
        space, _tlb, engine = setup()
        region = space.alloc_region(2 * MB, thp=False,
                                    preferred=FASTEST_TIER)
        full_ns = (engine.params.per_page_fixed_ns
                   + engine.params.copy_ns(BASE_PAGE_SIZE)
                   + engine.params.shootdown_ns)
        ns = engine.migrate_base(region.base_vpn, 1,
                                 copy_free=True)
        assert ns < full_ns
        assert engine.stats.demoted_pages == 1
        assert engine.stats.demoted_bytes == 0  # nothing crossed the bus
        assert int(space.page_tier[region.base_vpn]) == 1

    def test_side_copy_charges_time_but_moves_nothing(self):
        space, _tlb, engine = setup()
        ns = engine.charge_side_copy(BASE_PAGE_SIZE)
        assert ns > 0
        assert engine.stats.background_ns == ns
        assert engine.stats.traffic_bytes == 0
        assert engine.stats.promoted_pages == engine.stats.demoted_pages == 0


class TestDemotionCascade:
    """Satellite regression: a cascade hitting a full slowest tier must
    terminate gracefully -- bounded recursion, clean byte accounting,
    the OOM (if any) raised by the caller's own allocation rather than
    from inside a half-applied cascade."""

    def test_cascade_spills_through_middle_tier(self):
        space, engine = setup_ntier(4, 4, 4)
        space.alloc_region(4 * MB, thp=True, preferred=1)
        space.alloc_region(2 * MB, thp=True, preferred=2)
        mover = space.alloc_region(2 * MB, thp=True, preferred=0)
        engine.migrate_huge(mover.base_vpn >> 9, 1)
        assert int(space.page_tier[mover.base_vpn]) == 1
        assert engine.stats.cascade_pages == 1
        assert engine.stats.cascade_bytes == 2 * MB
        space.check_consistency()

    def test_cascade_recurses_through_two_full_tiers(self):
        space, engine = setup_ntier(4, 4, 4, 8)
        space.alloc_region(4 * MB, thp=True, preferred=1)
        space.alloc_region(4 * MB, thp=True, preferred=2)
        mover = space.alloc_region(2 * MB, thp=True, preferred=0)
        engine.migrate_huge(mover.base_vpn >> 9, 1)
        assert int(space.page_tier[mover.base_vpn]) == 1
        # One victim moved at each level: tier1 -> tier2 and tier2 -> tier3.
        assert engine.stats.cascade_pages == 2
        assert engine.stats.cascade_bytes == 4 * MB
        space.check_consistency()

    def test_full_hierarchy_terminates_with_caller_oom(self):
        space, engine = setup_ntier(4, 4, 4, 4)
        for idx in (1, 2, 3):
            space.alloc_region(4 * MB, thp=True, preferred=idx)
        mover = space.alloc_region(2 * MB, thp=True, preferred=0)
        with pytest.raises(OutOfMemoryError):
            engine.migrate_huge(mover.base_vpn >> 9, 1)
        # The cascade moved nothing and accounting is intact.
        assert engine.stats.cascade_pages == 0
        assert engine.stats.cascade_bytes == 0
        assert engine.stats.traffic_bytes == 0
        assert int(space.page_tier[mover.base_vpn]) == 0
        space.check_consistency()

    def test_partial_spill_clamps_to_available_room(self):
        space, engine = setup_ntier(8, 4, 4)
        # Tier 1: a base-page region (lowest vpns, so first in victim
        # order) plus a huge page -- completely full.
        t1_bases = space.alloc_region(2 * MB, thp=False,
                                      preferred=1)
        space.alloc_region(2 * MB, thp=True, preferred=1)
        # Tier 2: full, then promote two of its base pages out so it has
        # exactly 8 KiB of room for cascade spill.
        t2_bases = space.alloc_region(2 * MB, thp=False,
                                      preferred=2)
        space.alloc_region(2 * MB, thp=True, preferred=2)
        engine.migrate_many(
            np.arange(t2_bases.base_vpn, t2_bases.base_vpn + 2), 0)
        mover = space.alloc_region(2 * MB, thp=True, preferred=0)
        engine.stats = MigrationStats()

        with pytest.raises(OutOfMemoryError):
            engine.migrate_huge(mover.base_vpn >> 9, 1)
        # The cascade spilled only the two base pages tier 2 could take,
        # then the caller's 2 MB allocation on tier 1 raised; stats and
        # tier accounting describe exactly the pages that moved.
        assert engine.stats.cascade_pages == 2
        assert engine.stats.cascade_bytes == 2 * BASE_PAGE_SIZE
        assert engine.stats.demoted_pages == 2
        spilled = space.page_tier[t1_bases.base_vpn:t1_bases.base_vpn + 2]
        assert (spilled == 2).all()
        assert int(space.page_tier[mover.base_vpn]) == 0
        space.check_consistency()

    def test_two_tier_machines_keep_strict_oom(self):
        space, _tlb, engine = setup(fast_mb=4, cap_mb=4)
        space.alloc_region(4 * MB, thp=True,
                           preferred=1)
        mover = space.alloc_region(2 * MB, thp=True,
                                   preferred=FASTEST_TIER)
        with pytest.raises(OutOfMemoryError):
            engine.migrate_huge(mover.base_vpn >> 9, 1)
        assert engine.stats.cascade_pages == 0
        space.check_consistency()
