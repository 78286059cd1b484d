"""The page table: ``AddressSpace.page_tier``/``page_huge`` are the one
record of every mapping.

The unit tests pin what each mapping operation does to the arrays and
which calls it rejects.  :class:`MappingModel` drives an address space
on a DRAM/CXL/NVM machine through every mutation and, after each step,
compares it with a plain ``{vpn: (tier, is_huge)}`` model.
"""

from itertools import accumulate

import numpy as np
import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.mem.address_space import AddressSpace
from repro.mem.migration import MigrationEngine
from repro.mem.pages import (
    BASE_PAGE_SIZE,
    HUGE_PAGE_SIZE,
    SUBPAGES_PER_HUGE,
    WALK_LEVELS_BASE,
    WALK_LEVELS_HUGE,
)
from repro.mem.tiers import (
    FASTEST_TIER,
    TIER_UNMAPPED,
    OutOfMemoryError,
    TieredMemory,
    cxl_spec,
    dram_spec,
    nvm_spec,
)
from repro.mem.tlb import TLB, TLBConfig

MB = 1024 * 1024


def make_space(fast_mb=16, cap_mb=64, virtual_mb=None):
    tiers = TieredMemory.build(dram_spec(fast_mb * MB), nvm_spec(cap_mb * MB))
    virtual = None if virtual_mb is None else virtual_mb * MB
    return AddressSpace(tiers, virtual_bytes=virtual)


def holes(space, mb=2):
    """A huge region split with every subpage freed: unmapped vpns."""
    region = space.alloc_region(mb * MB, thp=True)
    for hpn in range(region.base_vpn >> 9, region.end_vpn >> 9):
        space.split_huge(hpn, [None] * SUBPAGES_PER_HUGE)
    return region


def mapped_count(space):
    return int(np.count_nonzero(space.page_tier != TIER_UNMAPPED))


def walk_levels_per_miss(space, vpn):
    """Page-walk references the TLB charges for one cold miss on ``vpn``."""
    tlb = TLB(TLBConfig(entries_4k=64, entries_2m=16, ways=4))
    vpns = np.array([vpn], dtype=np.int64)
    return tlb.access_substream(vpns, space.page_huge[vpns])


class TestBaseMappings:
    def test_map_lookup_unmap(self):
        space = make_space()
        region = holes(space)
        vpn = region.base_vpn + 5
        assert space.demand_map(vpn, FASTEST_TIER) == FASTEST_TIER
        assert space.tier_of_vpn(vpn) == FASTEST_TIER
        assert not space.page_huge[vpn]
        assert mapped_count(space) == 1
        space.free_region(region)
        with pytest.raises(KeyError):
            space.tier_of_vpn(vpn)
        assert mapped_count(space) == 0
        assert space.tiers.total_used() == 0

    def test_double_map_rejected(self):
        space = make_space()
        region = space.alloc_region(2 * MB, thp=False)
        with pytest.raises(ValueError):
            space.demand_map(region.base_vpn, 1)
        assert space.tier_of_vpn(region.base_vpn) == FASTEST_TIER
        space.check_consistency()

    def test_unmap_missing_raises(self):
        space = make_space()
        region = space.alloc_region(2 * MB)
        space.free_region(region)
        with pytest.raises(KeyError):
            space.tier_of_vpn(region.base_vpn)
        with pytest.raises(ValueError):
            space.free_region(region)

    def test_walk_levels(self):
        space = make_space()
        region = space.alloc_region(2 * MB, thp=False)
        assert walk_levels_per_miss(space, region.base_vpn) == WALK_LEVELS_BASE == 4
        # An unmapped vpn still walks all four levels to its fault.
        assert walk_levels_per_miss(space, region.end_vpn) == WALK_LEVELS_BASE

    def test_set_tier(self):
        space = make_space()
        region = space.alloc_region(2 * MB, thp=False)
        assert space.retarget(region.base_vpn, False, 1) == BASE_PAGE_SIZE
        assert space.tier_of_vpn(region.base_vpn) == 1
        assert space.tier_of_vpn(region.base_vpn + 1) == FASTEST_TIER
        assert space.tiers.slowest.used_bytes == BASE_PAGE_SIZE
        space.check_consistency()


class TestHugeMappings:
    def test_huge_covers_512_vpns(self):
        space = make_space()
        region = space.alloc_region(2 * MB, preferred=1)
        head = region.base_vpn
        for vpn in (head, head + SUBPAGES_PER_HUGE - 1):
            assert space.page_huge[vpn]
            assert space.tier_of_vpn(vpn) == 1
            assert space.mapping_heads(np.array([vpn]))[0] == head
            assert space.mapping_bytes(vpn) == HUGE_PAGE_SIZE
        assert space.page_tier[head + SUBPAGES_PER_HUGE] == TIER_UNMAPPED
        assert mapped_count(space) == SUBPAGES_PER_HUGE
        assert space.mapped_huge_hpns().tolist() == [head >> 9]

    def test_huge_walk_is_three_levels(self):
        space = make_space()
        region = space.alloc_region(2 * MB, thp=True)
        levels = walk_levels_per_miss(space, region.base_vpn + 100)
        assert levels == WALK_LEVELS_HUGE == 3

    def test_unaligned_huge_rejected(self):
        space = make_space()
        region = space.alloc_region(4 * MB, thp=True)
        before = space.page_tier.copy()
        with pytest.raises(KeyError):
            space.retarget_many(
                np.array([region.base_vpn + 100]), is_huge=True, dst=1)
        np.testing.assert_array_equal(space.page_tier, before)
        assert space.tiers.slowest.used_bytes == 0
        space.check_consistency()

    def test_huge_over_base_rejected(self):
        space = make_space()
        region = space.alloc_region(2 * MB, thp=False)
        with pytest.raises(KeyError):
            space.retarget(region.base_vpn, is_huge=True, dst=1)
        huge = space.alloc_region(2 * MB, thp=True)
        with pytest.raises(ValueError):
            space.collapse_huge(huge.base_vpn >> 9, FASTEST_TIER)
        assert space.tiers.slowest.used_bytes == 0
        space.check_consistency()

    def test_base_under_huge_rejected(self):
        space = make_space()
        region = space.alloc_region(2 * MB, thp=True)
        with pytest.raises(ValueError):
            space.demand_map(region.base_vpn + 188, FASTEST_TIER)
        with pytest.raises(KeyError):
            space.retarget(region.base_vpn + 188, is_huge=False, dst=1)
        assert space.page_huge[region.base_vpn : region.end_vpn].all()
        space.check_consistency()

    def test_unmap_any_subpage_removes_whole_huge(self):
        space = make_space()
        region = space.alloc_region(2 * MB, thp=True)
        space.free_region(region)
        assert not space.page_huge.any()
        assert len(space.mapped_huge_hpns()) == 0
        assert space.tiers.total_used() == 0


class TestSplitCollapse:
    def test_split_places_subpages(self):
        space = make_space()
        region = space.alloc_region(2 * MB, thp=True)
        head = region.base_vpn
        space.record_touch(np.arange(head, region.end_vpn))
        tiers = [FASTEST_TIER if i < 10 else
                 (None if i < 20 else 1)
                 for i in range(SUBPAGES_PER_HUGE)]
        result = space.split_huge(head >> 9, tiers)
        assert result == {
            "bytes_freed": 10 * BASE_PAGE_SIZE,
            "bytes_migrated": (SUBPAGES_PER_HUGE - 20) * BASE_PAGE_SIZE,
            "src_tier": FASTEST_TIER,
        }
        assert space.tier_of_vpn(head + 5) == FASTEST_TIER
        assert space.page_tier[head + 15] == TIER_UNMAPPED
        assert not space.touched[head + 15] and space.touched[head + 5]
        assert space.tier_of_vpn(head + 100) == 1
        assert len(space.mapped_huge_hpns()) == 0
        assert mapped_count(space) == SUBPAGES_PER_HUGE - 10
        assert space.tiers.fast.used_bytes == 10 * BASE_PAGE_SIZE
        space.check_consistency()

    def test_split_non_huge_rejected(self):
        space = make_space()
        region = space.alloc_region(2 * MB, thp=False)
        with pytest.raises(ValueError):
            space.split_huge(region.base_vpn >> 9,
                             [FASTEST_TIER] * SUBPAGES_PER_HUGE)
        space.check_consistency()

    def test_collapse_roundtrip(self):
        space = make_space()
        region = space.alloc_region(2 * MB, thp=False, preferred=1)
        moved = space.collapse_huge(region.base_vpn >> 9, FASTEST_TIER)
        assert moved == HUGE_PAGE_SIZE
        assert space.page_huge[region.base_vpn + 88]
        assert space.tier_of_vpn(region.base_vpn + 88) == FASTEST_TIER
        assert space.tiers.fast.used_bytes == HUGE_PAGE_SIZE
        assert space.tiers.slowest.used_bytes == 0
        space.check_consistency()

    def test_collapse_with_hole_rejected(self):
        space = make_space()
        region = space.alloc_region(2 * MB, thp=True)
        hpn = region.base_vpn >> 9
        space.split_huge(hpn, [FASTEST_TIER] * (SUBPAGES_PER_HUGE - 1) + [None])
        used = space.tiers.fast.used_bytes
        with pytest.raises(ValueError):
            space.collapse_huge(hpn, FASTEST_TIER)
        assert space.tiers.fast.used_bytes == used
        assert not space.page_huge.any()
        space.check_consistency()


class TestIteration:
    def test_iter_mappings_yields_each_leaf_once(self):
        space = make_space()
        split = space.alloc_region(2 * MB, thp=True)
        space.alloc_region(2 * MB, thp=True)
        space.split_huge(split.base_vpn >> 9, [FASTEST_TIER, 1] + [None] * 510)
        mapped = np.flatnonzero(space.page_tier != TIER_UNMAPPED)
        heads = np.unique(space.mapping_heads(mapped))
        assert len(heads) == 3
        assert len(space.mapped_huge_hpns()) == 1

    def test_sparse_far_apart_vpns(self):
        # The arrays cover the whole virtual space, to its last vpn.
        space = make_space(virtual_mb=8)
        regions = [space.alloc_region(2 * MB, thp=False) for _ in range(4)]
        last = space.num_vpns - 1
        assert regions[-1].end_vpn == space.num_vpns
        for vpn in (0, last):
            assert space.tier_of_vpn(vpn) == FASTEST_TIER
        assert mapped_count(space) == space.num_vpns
        with pytest.raises(OutOfMemoryError):
            space.alloc_region(2 * MB)


# -- the dict model --------------------------------------------------------------

#: Tier capacities of the model machine: a small middle tier fills
#: quickly, so moves into it run the demotion cascade.
CAPACITY = (4 * MB, 4 * MB, 8 * MB)
TIERS = st.sampled_from(range(len(CAPACITY)))


def fallback(preferred):
    """Allocation order: the preferred tier, slower tiers, then faster."""
    n = len(CAPACITY)
    return [preferred, *range(preferred + 1, n), *range(preferred - 1, -1, -1)]


class MappingModel(RuleBasedStateMachine):
    """An :class:`AddressSpace` on DRAM/CXL/NVM checked against a dict.

    Rules call every mapping mutation with arguments that are often
    wrong: interior vpns, the wrong shape, mapped pages, full tiers.
    Each rule predicts the call's outcome from the model alone.  A
    rejected call must raise the predicted error, and the invariant
    then finds the arrays unchanged.
    """

    def __init__(self):
        super().__init__()
        self.tiers = TieredMemory.build(
            dram_spec(CAPACITY[0]), cxl_spec(CAPACITY[1]), nvm_spec(CAPACITY[2]))
        # Room for a fresh 4 MiB region at each of the 30 steps.
        self.space = AddressSpace(self.tiers, virtual_bytes=128 * MB)
        self.migrator = MigrationEngine(self.space)
        self.model = {}  # vpn -> (tier, is_huge)
        self.used = [0] * len(CAPACITY)
        self.cascade_pages = 0
        self.regions = []
        self.freed = []

    # -- model bookkeeping ---------------------------------------------------

    def free(self, tier):
        return CAPACITY[tier] - self.used[tier]

    def head(self, vpn):
        return vpn - vpn % SUBPAGES_PER_HUGE if self.model[vpn][1] else vpn

    def span(self, head):
        return SUBPAGES_PER_HUGE if self.model[head][1] else 1

    def put(self, head, tier, is_huge):
        for vpn in range(head, head + (SUBPAGES_PER_HUGE if is_huge else 1)):
            self.drop(vpn)
            self.model[vpn] = (tier, is_huge)
            self.used[tier] += BASE_PAGE_SIZE

    def drop(self, vpn):
        if vpn in self.model:
            self.used[self.model.pop(vpn)[0]] -= BASE_PAGE_SIZE

    def move(self, head, tier):
        self.put(head, tier, self.model[head][1])

    def heads_shape(self, vpn, is_huge):
        """True when ``vpn`` heads a mapping of shape ``is_huge``."""
        return (vpn in self.model and self.model[vpn][1] == is_huge
                and (not is_huge or vpn % SUBPAGES_PER_HUGE == 0))

    # -- drawing arguments ---------------------------------------------------

    def pick(self, data, max_size=1, unique=True):
        """Live-region vpns: any vpn, unmapped ones, or mapping heads."""
        live = [v for r in self.regions for v in range(r.base_vpn, r.end_vpn)]
        pools = {
            "any": live,
            "holes": [v for v in live if v not in self.model],
            "heads": [v for v in live if v in self.model and self.head(v) == v],
        }
        pool = pools[data.draw(st.sampled_from(sorted(pools)))] or live
        return data.draw(st.lists(st.sampled_from(pool), min_size=1,
                                  max_size=max_size, unique=unique))

    def pick_hpn(self, data):
        region = data.draw(st.sampled_from(self.regions))
        return data.draw(st.integers(region.base_vpn >> 9, (region.end_vpn >> 9) - 1))

    # -- rules -------------------------------------------------------------------

    @rule(slots=st.integers(1, 2), thp=st.booleans(), preferred=TIERS)
    def alloc_region(self, slots, thp, preferred):
        size = HUGE_PAGE_SIZE if thp else BASE_PAGE_SIZE
        used = list(self.used)
        placement = []
        for _ in range(slots if thp else slots * SUBPAGES_PER_HUGE):
            fits = [t for t in fallback(preferred) if CAPACITY[t] - used[t] >= size]
            if not fits:
                with pytest.raises(OutOfMemoryError):  # all or nothing
                    self.space.alloc_region(
                        slots * HUGE_PAGE_SIZE, thp=thp, preferred=preferred)
                return
            used[fits[0]] += size
            placement.append(fits[0])
        region = self.space.alloc_region(
            slots * HUGE_PAGE_SIZE, thp=thp, preferred=preferred)
        assert not any(v in self.model for v in range(region.base_vpn, region.end_vpn))
        step = SUBPAGES_PER_HUGE if thp else 1
        for i, tier in enumerate(placement):
            self.put(region.base_vpn + i * step, tier, thp)
        self.regions.append(region)

    @precondition(lambda self: self.regions)
    @rule(data=st.data())
    def free_region(self, data):
        region = data.draw(st.sampled_from(self.regions))
        self.space.free_region(region)
        for vpn in range(region.base_vpn, region.end_vpn):
            self.drop(vpn)
        self.regions.remove(region)
        self.freed.append(region)

    @precondition(lambda self: self.freed)
    @rule(data=st.data())
    def free_region_again(self, data):
        with pytest.raises(ValueError):
            self.space.free_region(data.draw(st.sampled_from(self.freed)))

    @precondition(lambda self: self.regions)
    @rule(data=st.data(), preferred=TIERS)
    def demand_map(self, data, preferred):
        [vpn] = self.pick(data)
        fits = [t for t in fallback(preferred) if self.free(t) >= BASE_PAGE_SIZE]
        if vpn in self.model:
            with pytest.raises(ValueError):
                self.space.demand_map(vpn, preferred)
        elif not fits:
            with pytest.raises(OutOfMemoryError):
                self.space.demand_map(vpn, preferred)
        else:
            assert self.space.demand_map(vpn, preferred) == fits[0]
            self.put(vpn, fits[0], False)

    @precondition(lambda self: self.regions)
    @rule(data=st.data(), preferred=TIERS)
    def demand_map_many(self, data, preferred):
        vpns = self.pick(data, max_size=600, unique=data.draw(st.booleans()))
        call = lambda: self.space.demand_map_many(np.array(vpns), preferred)
        if any(v in self.model for v in vpns) or len(set(vpns)) < len(vpns):
            with pytest.raises(ValueError):
                call()
            return
        placement, rest = [], vpns
        for tier in fallback(preferred):
            n = min(len(rest), self.free(tier) // BASE_PAGE_SIZE)
            placement += [(v, tier) for v in rest[:n]]
            rest = rest[n:]
        if rest:
            with pytest.raises(OutOfMemoryError):
                call()
            return
        call()
        for vpn, tier in placement:
            self.put(vpn, tier, False)

    @precondition(lambda self: self.regions)
    @rule(data=st.data(), is_huge=st.booleans(), dst=TIERS)
    def retarget(self, data, is_huge, dst):
        [vpn] = self.pick(data)
        call = lambda: self.space.retarget(vpn, is_huge, dst)
        nbytes = HUGE_PAGE_SIZE if is_huge else BASE_PAGE_SIZE
        if not self.heads_shape(vpn, is_huge=is_huge):
            with pytest.raises(KeyError):
                call()
        elif self.model[vpn][0] == dst:
            assert call() == 0
        elif self.free(dst) < nbytes:
            with pytest.raises(OutOfMemoryError):
                call()
        else:
            assert call() == nbytes
            self.move(vpn, dst)

    @precondition(lambda self: self.regions)
    @rule(data=st.data(), is_huge=st.booleans(), dst=TIERS)
    def retarget_many(self, data, is_huge, dst):
        vpns = self.pick(data, max_size=4)
        call = lambda: self.space.retarget_many(np.array(vpns), is_huge, dst)
        nbytes = HUGE_PAGE_SIZE if is_huge else BASE_PAGE_SIZE
        if not all(self.heads_shape(v, is_huge) for v in vpns):
            with pytest.raises(KeyError):
                call()
        elif any(self.model[v][0] == dst for v in vpns):
            with pytest.raises(ValueError):
                call()
        elif self.free(dst) < len(vpns) * nbytes:
            with pytest.raises(OutOfMemoryError):
                call()
        else:
            assert call() == len(vpns)
            for vpn in vpns:
                self.move(vpn, dst)

    @precondition(lambda self: self.regions)
    @rule(data=st.data(), pattern=st.lists(
        st.sampled_from([None, 0, 1, 2]), min_size=1, max_size=4))
    def split_huge(self, data, pattern):
        hpn = self.pick_hpn(data)
        head = hpn * SUBPAGES_PER_HUGE
        subpage_tiers = [pattern[j % len(pattern)] for j in range(SUBPAGES_PER_HUGE)]
        call = lambda: self.space.split_huge(hpn, subpage_tiers)
        if head not in self.model or not self.model[head][1]:
            with pytest.raises(ValueError):
                call()
            return
        src = self.model[head][0]
        claims = {t: subpage_tiers.count(t) * BASE_PAGE_SIZE for t in range(3)}
        if any(claims[t] > self.free(t) + (HUGE_PAGE_SIZE if t == src else 0)
               for t in claims):
            with pytest.raises(OutOfMemoryError):
                call()
            return
        result = call()
        kept = [t for t in subpage_tiers if t is not None]
        assert result["bytes_freed"] == subpage_tiers.count(None) * BASE_PAGE_SIZE
        assert result["bytes_migrated"] == sum(t != src for t in kept) * BASE_PAGE_SIZE
        for j, tier in enumerate(subpage_tiers):
            self.drop(head + j)
            if tier is not None:
                self.put(head + j, tier, False)

    @precondition(lambda self: self.regions)
    @rule(data=st.data(), tier=TIERS)
    def collapse_huge(self, data, tier):
        hpn = self.pick_hpn(data)
        head = hpn * SUBPAGES_PER_HUGE
        entries = [self.model.get(head + j) for j in range(SUBPAGES_PER_HUGE)]
        call = lambda: self.space.collapse_huge(hpn, tier)
        if any(e is None or e[1] for e in entries):
            with pytest.raises(ValueError):
                call()
            return
        resident = sum(e[0] == tier for e in entries) * BASE_PAGE_SIZE
        if HUGE_PAGE_SIZE > self.free(tier) + resident:
            with pytest.raises(OutOfMemoryError):
                call()
            return
        assert call() == HUGE_PAGE_SIZE - resident
        self.put(head, tier, True)

    @precondition(lambda self: self.regions)
    @rule(data=st.data(), dst=st.sampled_from([1, 1, 0, 2]))
    def migrate_many(self, data, dst):
        vpns = self.pick(data, max_size=6, unique=False)
        call = lambda: self.migrator.migrate_many(np.array(vpns), dst)
        if any(v not in self.model for v in vpns):
            with pytest.raises(KeyError):
                call()
            return
        try:
            self.model_migrate_many(vpns, dst)
        except OutOfMemoryError:
            # The cascade's moves stand; only the final move is refused.
            with pytest.raises(OutOfMemoryError):
                call()
            return
        call()

    # -- the migration engine, restated over the dict ------------------------

    def model_migrate_many(self, vpns, dst):
        heads = sorted(h for h in {self.head(v) for v in vpns}
                       if self.model[h][0] != dst)
        base = [h for h in heads if not self.model[h][1]]
        huge = [h for h in heads if self.model[h][1]]
        incoming = len(base) * BASE_PAGE_SIZE + len(huge) * HUGE_PAGE_SIZE
        if incoming:
            self.model_ensure_room(dst, incoming)
        for group, size in ((base, BASE_PAGE_SIZE), (huge, HUGE_PAGE_SIZE)):
            if len(group) * size > self.free(dst):
                raise OutOfMemoryError(f"tier {dst} full")
            for h in group:
                self.move(h, dst)

    def model_ensure_room(self, dst, nbytes):
        """Push ``dst``'s lowest-vpn mappings one tier down until
        ``nbytes`` fit, moving only what the tier below can take."""
        need = nbytes - self.free(dst)
        if dst == len(CAPACITY) - 1 or need <= 0:
            return
        heads = sorted({self.head(v) for v, (t, _) in self.model.items() if t == dst})
        cum = list(accumulate(self.span(h) * BASE_PAGE_SIZE for h in heads))
        n = next((i + 1 for i, c in enumerate(cum) if c >= need), None)
        if n is None:
            return
        self.model_ensure_room(dst + 1, cum[n - 1])
        if cum[n - 1] > self.free(dst + 1):
            n = sum(c <= self.free(dst + 1) for c in cum)
            if n == 0:
                return
        self.model_migrate_many(heads[:n], dst + 1)
        self.cascade_pages += n

    # -- the check after every step ----------------------------------------

    @invariant()
    def arrays_match_model(self):
        tier = np.full(self.space.num_vpns, TIER_UNMAPPED, dtype=np.int8)
        huge = np.zeros(self.space.num_vpns, dtype=bool)
        for vpn, (t, is_huge) in self.model.items():
            tier[vpn] = t
            huge[vpn] = is_huge
        np.testing.assert_array_equal(self.space.page_tier, tier)
        np.testing.assert_array_equal(self.space.page_huge, huge)
        counted = np.bincount(tier[tier >= 0], minlength=len(CAPACITY))
        assert self.used == (counted * BASE_PAGE_SIZE).tolist()
        assert [t.used_bytes for t in self.tiers] == self.used
        assert self.migrator.stats.cascade_pages == self.cascade_pages
        self.space.check_consistency()


TestMappingModel = MappingModel.TestCase
TestMappingModel.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None)
