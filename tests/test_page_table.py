"""4-level radix page table."""

import pytest

from repro.mem.page_table import (
    Mapping,
    PageTable,
    WALK_LEVELS_BASE,
    WALK_LEVELS_HUGE,
)
from repro.mem.pages import SUBPAGES_PER_HUGE
from repro.mem.tiers import FASTEST_TIER


class TestBaseMappings:
    def test_map_lookup_unmap(self):
        pt = PageTable()
        pt.map_base(12345, FASTEST_TIER)
        mapping = pt.lookup(12345)
        assert mapping is not None
        assert mapping.tier is FASTEST_TIER
        assert not mapping.is_huge
        assert pt.mapped_vpns == 1
        pt.unmap(12345)
        assert pt.lookup(12345) is None
        assert pt.mapped_vpns == 0

    def test_double_map_rejected(self):
        pt = PageTable()
        pt.map_base(7, FASTEST_TIER)
        with pytest.raises(ValueError):
            pt.map_base(7, 1)

    def test_unmap_missing_raises(self):
        pt = PageTable()
        with pytest.raises(KeyError):
            pt.unmap(3)

    def test_walk_levels(self):
        pt = PageTable()
        pt.map_base(9, FASTEST_TIER)
        mapping, levels = pt.walk(9)
        assert levels == WALK_LEVELS_BASE == 4
        mapping, levels = pt.walk(10)  # unmapped: still walks to fault
        assert mapping is None
        assert levels == WALK_LEVELS_BASE

    def test_set_tier(self):
        pt = PageTable()
        pt.map_base(9, FASTEST_TIER)
        pt.set_tier(9, 1)
        assert pt.lookup(9).tier is 1


class TestHugeMappings:
    def test_huge_covers_512_vpns(self):
        pt = PageTable()
        pt.map_huge(1024, 1)
        for vpn in (1024, 1024 + 511):
            mapping = pt.lookup(vpn)
            assert mapping.is_huge
            assert mapping.vpn == 1024
        assert pt.lookup(1024 + 512) is None
        assert pt.mapped_vpns == SUBPAGES_PER_HUGE
        assert pt.mapped_huge_pages == 1

    def test_huge_walk_is_three_levels(self):
        pt = PageTable()
        pt.map_huge(0, FASTEST_TIER)
        _mapping, levels = pt.walk(100)
        assert levels == WALK_LEVELS_HUGE == 3

    def test_unaligned_huge_rejected(self):
        pt = PageTable()
        with pytest.raises(ValueError):
            pt.map_huge(100, FASTEST_TIER)

    def test_huge_over_base_rejected(self):
        pt = PageTable()
        pt.map_base(512, FASTEST_TIER)
        with pytest.raises(ValueError):
            pt.map_huge(512, FASTEST_TIER)

    def test_base_under_huge_rejected(self):
        pt = PageTable()
        pt.map_huge(512, FASTEST_TIER)
        with pytest.raises(ValueError):
            pt.map_base(700, FASTEST_TIER)

    def test_unmap_any_subpage_removes_whole_huge(self):
        pt = PageTable()
        pt.map_huge(512, FASTEST_TIER)
        pt.unmap(700)
        assert pt.lookup(512) is None
        assert pt.mapped_huge_pages == 0


class TestSplitCollapse:
    def test_split_places_subpages(self):
        pt = PageTable()
        pt.map_huge(0, FASTEST_TIER)
        tiers = [FASTEST_TIER if i < 10 else
                 (None if i < 20 else 1)
                 for i in range(SUBPAGES_PER_HUGE)]
        pt.split_huge(0, tiers)
        assert pt.lookup(5).tier is FASTEST_TIER
        assert pt.lookup(15) is None  # freed, all-zero subpage
        assert pt.lookup(100).tier is 1
        assert pt.mapped_huge_pages == 0
        assert pt.mapped_vpns == SUBPAGES_PER_HUGE - 10

    def test_split_non_huge_rejected(self):
        pt = PageTable()
        pt.map_base(0, FASTEST_TIER)
        with pytest.raises(ValueError):
            pt.split_huge(0, [FASTEST_TIER] * SUBPAGES_PER_HUGE)

    def test_collapse_roundtrip(self):
        pt = PageTable()
        for sub in range(SUBPAGES_PER_HUGE):
            pt.map_base(512 + sub, 1)
        pt.collapse_huge(512, FASTEST_TIER)
        mapping = pt.lookup(600)
        assert mapping.is_huge
        assert mapping.tier is FASTEST_TIER
        assert pt.mapped_vpns == SUBPAGES_PER_HUGE

    def test_collapse_with_hole_rejected(self):
        pt = PageTable()
        for sub in range(SUBPAGES_PER_HUGE - 1):
            pt.map_base(512 + sub, FASTEST_TIER)
        with pytest.raises(ValueError):
            pt.collapse_huge(512, FASTEST_TIER)


class TestIteration:
    def test_iter_mappings_yields_each_leaf_once(self):
        pt = PageTable()
        pt.map_base(1, FASTEST_TIER)
        pt.map_base(2, 1)
        pt.map_huge(1024, FASTEST_TIER)
        leaves = list(pt.iter_mappings())
        assert len(leaves) == 3
        assert sum(1 for m in leaves if m.is_huge) == 1

    def test_sparse_far_apart_vpns(self):
        pt = PageTable()
        far = [0, 1 << 20, 1 << 30, (1 << 35) + 17]
        for vpn in far:
            pt.map_base(vpn, FASTEST_TIER)
        for vpn in far:
            assert pt.lookup(vpn) is not None
        assert pt.mapped_vpns == len(far)
