"""Address space: regions, THP, RSS/bloat, recycling, consistency."""

import numpy as np
import pytest

from repro.mem.address_space import AddressSpace
from repro.mem.pages import BASE_PAGE_SIZE, HUGE_PAGE_SIZE, SUBPAGES_PER_HUGE
from repro.mem.tiers import (
    FASTEST_TIER,
    OutOfMemoryError,
    TieredMemory,
    cxl_spec,
    dram_spec,
    nvm_spec,
)

MB = 1024 * 1024


def make_space(fast_mb=16, cap_mb=64):
    tiers = TieredMemory.build(dram_spec(fast_mb * MB), nvm_spec(cap_mb * MB))
    return AddressSpace(tiers)


class TestAllocation:
    def test_thp_region_maps_huge(self):
        space = make_space()
        region = space.alloc_region(4 * MB, thp=True)
        assert region.num_vpns == 4 * MB // BASE_PAGE_SIZE
        assert space.page_huge[region.base_vpn]
        assert len(space.mapped_huge_hpns()) == 2
        space.check_consistency()

    def test_base_region_maps_base(self):
        space = make_space()
        region = space.alloc_region(2 * MB, thp=False)
        assert not space.page_huge[region.base_vpn]
        assert len(space.mapped_huge_hpns()) == 0
        space.check_consistency()

    def test_size_rounds_to_huge_multiple(self):
        space = make_space()
        region = space.alloc_region(3 * MB + 1)
        assert region.nbytes == 4 * MB

    def test_rejects_nonpositive(self):
        space = make_space()
        with pytest.raises(ValueError):
            space.alloc_region(0)

    def test_fast_first_with_fallback(self):
        space = make_space(fast_mb=4, cap_mb=64)
        region = space.alloc_region(8 * MB, preferred=FASTEST_TIER)
        tiers_used = set(space.page_tier[region.base_vpn : region.end_vpn].tolist())
        assert tiers_used == {FASTEST_TIER, 1}
        assert space.tiers.fast.free_bytes == 0
        space.check_consistency()

    def test_oom_when_both_tiers_full(self):
        space = make_space(fast_mb=2, cap_mb=2)
        space.alloc_region(4 * MB)
        with pytest.raises(OutOfMemoryError):
            space.alloc_region(2 * MB)

    def test_oom_leaves_the_space_unchanged(self):
        """A region that does not fit raises before anything is
        reserved, charged or mapped."""
        space = make_space(fast_mb=4, cap_mb=2)
        # A recycled 4 MB range the failed region must not take.
        space.free_region(space.alloc_region(4 * MB, thp=False))
        space.alloc_region(2 * MB, thp=False)
        space.alloc_region(2 * MB, thp=False)  # 2 MB left free
        used = [t.used_bytes for t in space.tiers]
        page_tier, page_huge = space.page_tier.copy(), space.page_huge.copy()
        regions, bump = space.regions, space._bump_vpn
        recycle = {k: list(v) for k, v in space._recycle.items()}
        with pytest.raises(OutOfMemoryError):
            space.alloc_region(3 * MB, thp=False)
        assert [t.used_bytes for t in space.tiers] == used
        np.testing.assert_array_equal(space.page_tier, page_tier)
        np.testing.assert_array_equal(space.page_huge, page_huge)
        assert space.regions == regions
        assert space._bump_vpn == bump
        assert space._recycle == recycle
        space.check_consistency()
        # The 2 MB still free holds a region that fits.
        space.alloc_region(2 * MB, thp=False)
        space.check_consistency()

    def test_rss_accounts_mapped_not_touched(self):
        """Huge-page bloat: RSS counts whole mappings (§6.2.5 Btree)."""
        space = make_space()
        region = space.alloc_region(8 * MB, thp=True)
        assert space.rss_bytes == 8 * MB
        space.record_touch(np.array([region.base_vpn]))
        assert space.touched_bytes == BASE_PAGE_SIZE
        assert space.rss_bytes == 8 * MB

    def test_huge_page_ratio(self):
        space = make_space()
        space.alloc_region(6 * MB, thp=True)
        space.alloc_region(2 * MB, thp=False)
        assert space.huge_page_ratio() == pytest.approx(0.75)


def per_page_fill(space, num_vpns, thp, preferred):
    """Reference fill: each page, in order, on the first tier in
    fallback order with room for it; returns each vpn's tier and charges
    the tiers, or raises OutOfMemoryError after charging what fit."""
    span = SUBPAGES_PER_HUGE if thp else 1
    placed = []
    for _ in range(num_vpns // span):
        fits = [t for t in space.tiers.fallback_order(preferred)
                if space.tiers.tier(t).can_alloc(span * BASE_PAGE_SIZE)]
        if not fits:
            raise OutOfMemoryError("reference: no tier has room")
        space.tiers.tier(fits[0]).alloc(span * BASE_PAGE_SIZE)
        placed.append(fits[0])
    return np.repeat(np.array(placed, dtype=np.int8), span)


#: Capacities in MB, fastest first; odd sizes leave room for base pages
#: that no huge page fits.
MACHINES = {
    "2-tier": [(dram_spec, 5), (nvm_spec, 16)],
    "3-tier": [(dram_spec, 5), (cxl_spec, 7), (nvm_spec, 16)],
}


class TestFillPlanner:
    """``alloc_region`` maps each tier's pages in one run; it places
    every page where the page-at-a-time fill would."""

    @staticmethod
    def _space(machine, gated, prefill_tier):
        tiers = TieredMemory.build(
            *(spec(mb * MB) for spec, mb in MACHINES[machine]))
        space = AddressSpace(tiers)
        if prefill_tier is not None:  # leave the preferred tier partly full
            space.alloc_region(2 * MB, thp=False, preferred=prefill_tier)
        if gated:  # an allocation outage on the fast tier
            tiers.fast.fault_gate = lambda: True
        return space

    @pytest.mark.parametrize("gated", [False, True], ids=["open", "gated"])
    @pytest.mark.parametrize("thp", [True, False], ids=["thp", "base"])
    @pytest.mark.parametrize("machine", sorted(MACHINES))
    def test_matches_the_per_page_fill(self, machine, thp, gated):
        num_tiers = len(MACHINES[machine])
        for preferred in range(num_tiers):
            for prefill in (None, preferred):
                for mb in (2, 8, 14, 40):
                    got = self._space(machine, gated, prefill)
                    ref = self._space(machine, gated, prefill)
                    num_vpns = mb * MB // BASE_PAGE_SIZE
                    try:
                        want = per_page_fill(ref, num_vpns, thp, preferred)
                    except OutOfMemoryError:
                        used = [t.used_bytes for t in got.tiers]
                        with pytest.raises(OutOfMemoryError):
                            got.alloc_region(mb * MB, thp=thp,
                                             preferred=preferred)
                        assert [t.used_bytes for t in got.tiers] == used
                        continue
                    region = got.alloc_region(mb * MB, thp=thp,
                                              preferred=preferred)
                    span = slice(region.base_vpn, region.end_vpn)
                    np.testing.assert_array_equal(got.page_tier[span], want)
                    assert (got.page_huge[span] == thp).all()
                    assert ([t.used_bytes for t in got.tiers]
                            == [t.used_bytes for t in ref.tiers])
                    got.check_consistency()


class TestFreeAndRecycle:
    def test_free_returns_capacity(self):
        space = make_space()
        region = space.alloc_region(4 * MB)
        used = space.tiers.total_used()
        space.free_region(region)
        assert space.tiers.total_used() == used - 4 * MB
        assert not region.live
        space.check_consistency()

    def test_double_free_rejected(self):
        space = make_space()
        region = space.alloc_region(2 * MB)
        space.free_region(region)
        with pytest.raises(ValueError):
            space.free_region(region)

    def test_virtual_range_recycled(self):
        space = make_space()
        region = space.alloc_region(4 * MB)
        base = region.base_vpn
        space.free_region(region)
        again = space.alloc_region(4 * MB)
        assert again.base_vpn == base

    def test_unmap_listener_called(self):
        space = make_space()
        calls = []
        space.add_unmap_listener(lambda vpn, n: calls.append((vpn, n)))
        region = space.alloc_region(2 * MB)
        space.free_region(region)
        assert calls == [(region.base_vpn, region.num_vpns)]

    def test_free_region_with_split_holes(self):
        """Splits can unmap subpages; free must handle the holes."""
        space = make_space()
        region = space.alloc_region(2 * MB)
        hpn = region.base_vpn >> 9
        tiers = [None if i % 2 else 1
                 for i in range(SUBPAGES_PER_HUGE)]
        space.split_huge(hpn, tiers)
        space.free_region(region)
        assert space.tiers.total_used() == 0
        space.check_consistency()


class TestMutations:
    def test_retarget_moves_bytes(self):
        space = make_space()
        region = space.alloc_region(2 * MB, preferred=FASTEST_TIER)
        moved = space.retarget(region.base_vpn, is_huge=True, dst=1)
        assert moved == HUGE_PAGE_SIZE
        assert space.tiers.fast.used_bytes == 0
        assert space.page_tier[region.base_vpn] == 1
        space.check_consistency()

    def test_retarget_same_tier_is_noop(self):
        space = make_space()
        region = space.alloc_region(2 * MB, preferred=FASTEST_TIER)
        assert space.retarget(region.base_vpn, True, FASTEST_TIER) == 0

    def test_retarget_unaligned_huge_rejected(self):
        # Only the 2 MiB head names a huge mapping: an interior vpn would
        # retarget a 512-vpn span reaching into the next slot.
        space = make_space()
        region = space.alloc_region(4 * MB, preferred=FASTEST_TIER)
        before = space.page_tier.copy()
        with pytest.raises(KeyError):
            space.retarget(region.base_vpn + 100, is_huge=True, dst=1)
        np.testing.assert_array_equal(space.page_tier, before)
        assert space.tiers.fast.used_bytes == 4 * MB
        space.check_consistency()

    def test_retarget_many_base_on_huge_head_rejected(self):
        # A 4 KiB move of a huge page's head would move 4 KiB of
        # accounting and one page_tier entry out of a 2 MiB mapping.
        space = make_space()
        region = space.alloc_region(2 * MB, preferred=FASTEST_TIER)
        with pytest.raises(KeyError):
            space.retarget_many(
                np.array([region.base_vpn]), is_huge=False, dst=1)
        span = space.page_tier[region.base_vpn : region.end_vpn]
        assert (span == FASTEST_TIER).all()
        assert space.tiers.fast.used_bytes == 2 * MB
        assert space.tiers.slowest.used_bytes == 0
        space.check_consistency()

    def test_split_frees_and_migrates(self):
        space = make_space()
        region = space.alloc_region(2 * MB, preferred=FASTEST_TIER)
        hpn = region.base_vpn >> 9
        tiers = [FASTEST_TIER] * 10 + [None] * 10 + \
                [1] * (SUBPAGES_PER_HUGE - 20)
        result = space.split_huge(hpn, tiers)
        assert result["bytes_freed"] == 10 * BASE_PAGE_SIZE
        assert result["bytes_migrated"] == (SUBPAGES_PER_HUGE - 20) * BASE_PAGE_SIZE
        assert space.rss_bytes == HUGE_PAGE_SIZE - 10 * BASE_PAGE_SIZE
        space.check_consistency()

    def test_collapse_roundtrip(self):
        space = make_space()
        region = space.alloc_region(2 * MB, preferred=FASTEST_TIER)
        hpn = region.base_vpn >> 9
        space.split_huge(hpn, [1] * SUBPAGES_PER_HUGE)
        moved = space.collapse_huge(hpn, FASTEST_TIER)
        assert moved == HUGE_PAGE_SIZE
        assert space.page_huge[region.base_vpn]
        space.check_consistency()

    def test_collapse_with_freed_subpage_rejected(self):
        space = make_space()
        region = space.alloc_region(2 * MB)
        hpn = region.base_vpn >> 9
        tiers = [None] + [1] * (SUBPAGES_PER_HUGE - 1)
        space.split_huge(hpn, tiers)
        with pytest.raises(ValueError):
            space.collapse_huge(hpn, FASTEST_TIER)

    def test_demand_map(self):
        space = make_space()
        region = space.alloc_region(2 * MB)
        hpn = region.base_vpn >> 9
        tiers = [None] * 5 + [1] * (SUBPAGES_PER_HUGE - 5)
        space.split_huge(hpn, tiers)
        tier = space.demand_map(region.base_vpn, FASTEST_TIER)
        assert tier is FASTEST_TIER
        with pytest.raises(ValueError):
            space.demand_map(region.base_vpn, FASTEST_TIER)
        space.check_consistency()

    def test_demand_map_many_rejects_a_repeated_vpn(self):
        space = make_space()
        region = space.alloc_region(2 * MB)
        space.split_huge(region.base_vpn >> 9, [None] * SUBPAGES_PER_HUGE)
        vpns = np.array([region.base_vpn, region.base_vpn + 1, region.base_vpn])
        with pytest.raises(ValueError):
            space.demand_map_many(vpns, FASTEST_TIER)
        assert space.tiers.total_used() == 0
        assert (space.page_tier[region.base_vpn : region.end_vpn] < 0).all()

    def test_record_touch_sets_ref_bits(self):
        space = make_space()
        region = space.alloc_region(2 * MB)
        vpns = np.array([region.base_vpn, region.base_vpn + 3])
        space.record_touch(vpns)
        assert space.ref_bit[vpns].all()
        assert space.touched[vpns].all()
