"""`kmigrated`: promotion, demotion ordering, splits, collapse."""

import numpy as np
import pytest

from repro.core.config import MemtisConfig
from repro.core.migrator import KMigrated
from repro.core.sampler import KSampled
from repro.mem.pages import SUBPAGES_PER_HUGE
from repro.mem.tiers import FASTEST_TIER
from repro.pebs.sampler import SampleBatch

from conftest import make_context

MB = 1024 * 1024


def build(ctx, **overrides):
    config = MemtisConfig(**overrides).resolved(
        ctx.tiers.fast.capacity_bytes,
        ctx.tiers.fast.capacity_bytes + ctx.tiers.slowest.capacity_bytes,
    )
    ks = KSampled(config, ctx)
    km = KMigrated(config, ctx, ks)
    return ks, km


def samples_of(vpns):
    vpns = np.asarray(vpns, dtype=np.int64)
    return SampleBatch(vpns, np.zeros(len(vpns), dtype=bool))


def alloc(ctx, ks, mb, tier, thp=True):
    region = ctx.space.alloc_region(
        mb * MB, thp=thp, preferred=tier)
    ks.on_region_alloc(region)
    return region


class TestPromotion:
    def test_promotes_queued_hot_pages(self, ctx):
        ks, km = build(ctx)
        region = alloc(ctx, ks, 2, 1)
        head = region.base_vpn
        ks.process_samples(samples_of([head] * 50))
        assert head in ks.promotion_queue
        km.tick(now_ns=1e9)
        assert ctx.space.page_tier[head] == FASTEST_TIER
        assert head not in ks.promotion_queue

    def test_promotion_makes_room_by_demoting_colder(self, ctx):
        ks, km = build(ctx)
        # Fill the fast tier with cold pages, put a hot page on capacity.
        cold = alloc(ctx, ks, 16, FASTEST_TIER)
        hot = alloc(ctx, ks, 2, 1)
        ks.process_samples(samples_of([hot.base_vpn] * 200))
        ks.adapt()
        ks.process_samples(samples_of([hot.base_vpn] * 10))
        km.tick(now_ns=1e9)
        assert ctx.space.page_tier[hot.base_vpn] == FASTEST_TIER

    def test_stale_queue_entries_discarded(self, ctx):
        ks, km = build(ctx)
        region = alloc(ctx, ks, 2, 1)
        head = region.base_vpn
        ks.promotion_queue.add(head)
        ks.main_bin[head] = 0  # definitely below any hot threshold
        ks.thresholds = type(ks.thresholds)(hot=5, warm=4, cold=3)
        km.tick(now_ns=1e9)
        assert ctx.space.page_tier[head] == 1
        assert head not in ks.promotion_queue


class TestDemotion:
    def _fill_fast_with_bins(self, ctx, ks):
        """Three huge pages on fast with cold/warm/hot bins."""
        ctx_region = alloc(ctx, ks, 6, FASTEST_TIER)
        heads = [ctx_region.base_vpn + i * SUBPAGES_PER_HUGE for i in range(3)]
        ks.meta.huge_count[[h >> 9 for h in heads]] = [1, 40, 4000]
        ks.cool = ks.cool  # no-op marker
        # Rebuild bins directly from counts.
        ksampled_cool(ks)
        ks.thresholds = type(ks.thresholds)(hot=9, warm=5, cold=4)
        return heads

    def test_cold_demoted_before_warm(self, ctx):
        ks, km = build(ctx)
        heads = self._fill_fast_with_bins(ctx, ks)
        km._demote(need=2 * MB, allow_warm=True)
        tiers = [int(ctx.space.page_tier[h]) for h in heads]
        # Coldest (count 1 -> bin 0) went first; hot stays.
        assert tiers[0] == 1
        assert tiers[1] == FASTEST_TIER
        assert tiers[2] == FASTEST_TIER

    def test_warm_demoted_under_pressure(self, ctx):
        ks, km = build(ctx)
        heads = self._fill_fast_with_bins(ctx, ks)
        km._demote(need=4 * MB, allow_warm=True)
        tiers = [int(ctx.space.page_tier[h]) for h in heads]
        assert tiers[:2] == [1] * 2
        assert tiers[2] == FASTEST_TIER  # hot never demoted

    def test_hot_never_demoted_even_desperate(self, ctx):
        ks, km = build(ctx)
        heads = self._fill_fast_with_bins(ctx, ks)
        km._demote(need=60 * MB, allow_warm=True)
        assert ctx.space.page_tier[heads[2]] == FASTEST_TIER

    def test_max_bin_restricts_victims(self, ctx):
        ks, km = build(ctx)
        heads = self._fill_fast_with_bins(ctx, ks)
        km._demote(need=60 * MB, allow_warm=True, max_bin=5)
        # Only the bin-0 page is strictly colder than bin 5.
        tiers = [int(ctx.space.page_tier[h]) for h in heads]
        assert tiers == [1, FASTEST_TIER,
                         FASTEST_TIER]


def ksampled_cool(ks):
    """Force a histogram rebuild that leaves the counters unchanged."""
    ks.meta.sub_count <<= 1
    ks.meta.huge_count <<= 1
    ks.cool()  # halves back to the original values and rebuilds bins


class TestSplitExecution:
    def _skewed_region(self, ctx, ks, tier=FASTEST_TIER):
        """Four huge pages, each with 8 hot subpages out of 512."""
        region = alloc(ctx, ks, 8, tier)
        head = region.base_vpn
        hot_subs = [
            head + hp * SUBPAGES_PER_HUGE + j
            for hp in range(4)
            for j in range(8)
        ]
        for hp in range(4):
            base = head + hp * SUBPAGES_PER_HUGE
            ctx.space.record_touch(np.arange(base, base + 64))
        ks.process_samples(samples_of(hot_subs * 40))
        ks.adapt()
        # Split decisions are gated on the first cooling (long-term
        # trends only); mark it as done for these unit tests.
        ks.coolings_requested = 1
        return region, head

    def test_split_frees_untouched_and_places_hot(self, ctx):
        ks, km = build(ctx)
        region, head = self._skewed_region(ctx, ks)
        km.split_queue.append(head >> 9)
        km.split_hpns.add(head >> 9)
        km.tick(now_ns=1e9)
        assert km.splits_done == 1
        # Hot subpages stayed fast; untouched subpages were freed.
        assert ctx.space.page_tier[head] == FASTEST_TIER
        assert ctx.space.page_tier[head + 200] == -1  # never touched
        assert not ctx.space.page_huge[head]
        ctx.space.check_consistency()

    def test_consider_split_requires_persistent_benefit(self, ctx):
        ks, km = build(ctx)
        self._skewed_region(ctx, ks)
        assert km.consider_split(ehr=0.9, rhr=0.2) == 0  # first window gated
        assert km.consider_split(ehr=0.9, rhr=0.2) > 0   # second window fires

    def test_benefit_streak_resets(self, ctx):
        ks, km = build(ctx)
        self._skewed_region(ctx, ks)
        km.consider_split(0.9, 0.2)
        km.consider_split(0.5, 0.49)  # below the 5% bar: streak resets
        assert km.consider_split(0.9, 0.2) == 0

    def test_split_disabled_by_config(self, ctx):
        ks, km = build(ctx, enable_split=False)
        self._skewed_region(ctx, ks)
        assert km.consider_split(0.9, 0.1) == 0
        assert km.consider_split(0.9, 0.1) == 0

    def test_small_benefit_never_triggers(self, ctx):
        ks, km = build(ctx)
        self._skewed_region(ctx, ks)
        for _ in range(5):
            assert km.consider_split(0.52, 0.50) == 0


class TestCollapse:
    def test_collapse_when_all_subpages_hot(self, ctx):
        ks, km = build(ctx, enable_collapse=True)
        region = alloc(ctx, ks, 2, FASTEST_TIER)
        head = region.base_vpn
        hpn = head >> 9
        ctx.space.record_touch(np.arange(head, head + SUBPAGES_PER_HUGE))
        ctx.space.split_huge(hpn, [FASTEST_TIER] * SUBPAGES_PER_HUGE)
        kept = np.ones(SUBPAGES_PER_HUGE, dtype=bool)
        ks.on_split(hpn, kept)
        km.split_hpns.add(hpn)
        # Make every subpage hot.
        ks.meta.sub_count[head : head + SUBPAGES_PER_HUGE] = 64
        km.tick(now_ns=1e9)
        assert km.collapses_done == 1
        assert ctx.space.page_huge[head]
        ctx.space.check_consistency()

    def test_no_collapse_with_cold_subpage(self, ctx):
        ks, km = build(ctx, enable_collapse=True)
        region = alloc(ctx, ks, 2, FASTEST_TIER)
        head = region.base_vpn
        hpn = head >> 9
        ctx.space.split_huge(hpn, [FASTEST_TIER] * SUBPAGES_PER_HUGE)
        ks.on_split(hpn, np.ones(SUBPAGES_PER_HUGE, dtype=bool))
        km.split_hpns.add(hpn)
        ks.meta.sub_count[head : head + SUBPAGES_PER_HUGE] = 64
        ks.meta.sub_count[head + 5] = 0  # one cold subpage
        km.tick(now_ns=1e9)
        assert km.collapses_done == 0


def _collapse_one_range_at_a_time(km):
    """The per-range collapse loop ``_maybe_collapse`` replaced: every
    split range checked with its own ``np.any``/``np.all``."""
    space = km.ctx.space
    threshold_hotness = max(1, km.ksampled.base_cut_hotness)
    for hpn in list(km.split_hpns):
        head = hpn << 9
        sl = slice(head, head + SUBPAGES_PER_HUGE)
        if space.page_huge[head]:
            km.split_hpns.discard(hpn)
            continue
        if np.any(space.page_tier[sl] < 0):
            continue
        hotness = km.ksampled.meta.sub_count[sl] * km.ksampled.comp
        if not np.all(hotness >= threshold_hotness):
            continue
        resident_fast = int(
            np.count_nonzero(space.page_tier[sl] == FASTEST_TIER)) * 4096
        if not km.ctx.tiers.fast.can_alloc(2 * MB - resident_fast):
            continue
        km.ctx.migrator.collapse_huge(hpn, FASTEST_TIER, critical=False)
        km.ksampled.on_collapse(hpn)
        km.split_hpns.discard(hpn)
        km.collapses_done += 1


def _split_ranges(seed):
    """Ten split ranges, each one of: all hot, one cold subpage, one
    freed subpage, huge again -- on the fast tier, on capacity, or
    spread over both -- with room on the fast tier for a few of the
    capacity ranges' collapses."""
    rng = np.random.default_rng(seed)
    ctx = make_context(fast_mb=16, cap_mb=64)
    ks, km = build(ctx, enable_collapse=True)
    kinds = rng.choice(["hot", "hot", "cold", "freed", "huge"], size=10)
    places = rng.choice(["fast", "capacity", "both"], size=10)
    alloc(ctx, ks, 2 * int(rng.integers(1, 4)), FASTEST_TIER)  # filler
    for kind, place in zip(kinds, places):
        region = alloc(ctx, ks, 2, 1 if place == "capacity" else FASTEST_TIER)
        head = region.base_vpn
        hpn = head >> 9
        tiers = [FASTEST_TIER if place == "fast" or (place == "both"
                                                     and i % 2) else 1
                 for i in range(SUBPAGES_PER_HUGE)]
        kept = np.ones(SUBPAGES_PER_HUGE, dtype=bool)
        if kind == "freed":
            kept[int(rng.integers(SUBPAGES_PER_HUGE))] = False
        ks.meta.sub_count[head:head + SUBPAGES_PER_HUGE] = 64
        if kind == "cold":
            ks.meta.sub_count[head + int(rng.integers(SUBPAGES_PER_HUGE))] = 0
        ctx.migrator.split_huge(
            hpn, [t if k else None for t, k in zip(tiers, kept)])
        ks.on_split(hpn, kept)
        # A freed subpage counts as hot: only its tier keeps the range.
        ks.meta.sub_count[head + np.flatnonzero(~kept)] = 64
        km.split_hpns.add(hpn)
        if kind == "huge":
            ctx.space.collapse_huge(hpn, tiers[0])
    return ctx, ks, km


@pytest.mark.parametrize("seed", range(12))
def test_batched_collapse_check_equals_the_per_range_loop(seed):
    batched, reference = _split_ranges(seed), _split_ranges(seed)
    batched[2]._maybe_collapse()
    _collapse_one_range_at_a_time(reference[2])
    for (ctx, ks, km), (ref_ctx, ref_ks, ref_km) in [(batched, reference)]:
        assert km.split_hpns == ref_km.split_hpns
        assert list(km.split_hpns) == list(ref_km.split_hpns)
        assert km.collapses_done == ref_km.collapses_done
        assert np.array_equal(ctx.space.page_tier, ref_ctx.space.page_tier)
        assert np.array_equal(ctx.space.page_huge, ref_ctx.space.page_huge)
        assert np.array_equal(ks.main_bin, ref_ks.main_bin)
        assert np.array_equal(ks.hist.bins, ref_ks.hist.bins)
        assert np.array_equal(ks.meta.huge_count, ref_ks.meta.huge_count)
        assert ctx.tiers.fast.used_bytes == ref_ctx.tiers.fast.used_bytes
        ctx.space.check_consistency()


def test_the_collapse_differential_covers_every_outcome():
    """Over the seeds above some range collapses and some all-hot range
    is refused for want of room on the fast tier."""
    collapsed = refused = 0
    for seed in range(12):
        ctx, ks, km = _split_ranges(seed)
        km._maybe_collapse()
        collapsed += km.collapses_done
        for hpn in km.split_hpns:
            sl = slice(hpn << 9, (hpn << 9) + SUBPAGES_PER_HUGE)
            refused += bool(np.all(ctx.space.page_tier[sl] >= 0)
                            and np.all(ks.meta.sub_count[sl] > 0))
    assert collapsed > 0
    assert refused > 0


class TestBookkeepingRegressions:
    """The kmigrated bookkeeping bugs the invariant sanitizer caught."""

    def test_skipped_split_entry_discarded(self, ctx):
        # A queued hpn whose page is no longer huge (raced with a free)
        # must leave split_hpns too -- a leaked entry permanently blocks
        # consider_split from ever re-queueing that slot.
        ks, km = build(ctx)
        region = alloc(ctx, ks, 2, FASTEST_TIER)
        hpn = region.base_vpn >> 9
        km.split_queue.append(hpn)
        km.split_hpns.add(hpn)
        ctx.space.free_region(region)
        km._process_split_queue()
        assert km.split_queue == []
        assert hpn not in km.split_hpns

    def test_sanitizer_catches_leaked_split_entry(self, ctx):
        from types import SimpleNamespace

        from repro.check import InvariantViolation, Sanitizer

        ks, km = build(ctx)
        region = alloc(ctx, ks, 2, FASTEST_TIER)
        hpn = region.base_vpn >> 9
        # The pre-fix end state: huge-mapped slot tracked as split but
        # not queued -- exactly what the leak left behind.
        km.split_hpns.add(hpn)
        san = Sanitizer(
            "strict", space=ctx.space, tiers=ctx.tiers,
            policy=SimpleNamespace(ksampled=ks, kmigrated=km),
        )
        with pytest.raises(InvariantViolation) as exc:
            san.run_checks()
        assert any(f.check == "split-bookkeeping"
                   for f in exc.value.findings)

    def test_on_unmap_drops_split_bookkeeping(self, ctx):
        ks, km = build(ctx)
        region = alloc(ctx, ks, 4, FASTEST_TIER)
        hpns = [(region.base_vpn >> 9), (region.base_vpn >> 9) + 1]
        km.split_queue.extend(hpns)
        km.split_hpns.update(hpns)
        km.on_unmap(region.base_vpn, region.num_vpns)
        assert km.split_queue == []
        assert km.split_hpns == set()

    def test_collapse_fires_near_full_fast_tier(self, ctx):
        from repro.mem.pages import HUGE_PAGE_SIZE

        ks, km = build(ctx, enable_collapse=True)
        # Fill the 16 MiB fast tier completely: 14 MiB of other data
        # plus the 2 MiB split range itself.
        alloc(ctx, ks, 14, FASTEST_TIER)
        region = alloc(ctx, ks, 2, FASTEST_TIER)
        head = region.base_vpn
        hpn = head >> 9
        ctx.space.record_touch(np.arange(head, head + SUBPAGES_PER_HUGE))
        ctx.space.split_huge(hpn, [FASTEST_TIER] * SUBPAGES_PER_HUGE)
        ks.on_split(hpn, np.ones(SUBPAGES_PER_HUGE, dtype=bool))
        km.split_hpns.add(hpn)
        ks.meta.sub_count[head : head + SUBPAGES_PER_HUGE] = 64
        assert ctx.tiers.fast.free_bytes < HUGE_PAGE_SIZE
        # The collapse returns the resident subpages' bytes before the
        # huge mapping allocates, so zero extra free space is needed.
        km._maybe_collapse()
        assert km.collapses_done == 1
        assert ctx.space.page_huge[head]
        ctx.space.check_consistency()

    def test_collapse_still_blocked_when_subpages_on_capacity(self, ctx):
        # With every subpage on the capacity tier the collapse really
        # does need a full free 2 MiB on fast; near-full must refuse.
        ks, km = build(ctx, enable_collapse=True)
        alloc(ctx, ks, 15, FASTEST_TIER)
        region = alloc(ctx, ks, 2, 1)
        head = region.base_vpn
        hpn = head >> 9
        ctx.space.record_touch(np.arange(head, head + SUBPAGES_PER_HUGE))
        ctx.space.split_huge(hpn, [1] * SUBPAGES_PER_HUGE)
        ks.on_split(hpn, np.ones(SUBPAGES_PER_HUGE, dtype=bool))
        km.split_hpns.add(hpn)
        ks.meta.sub_count[head : head + SUBPAGES_PER_HUGE] = 64
        km._maybe_collapse()
        assert km.collapses_done == 0
        assert not ctx.space.page_huge[head]

    def test_promotion_skips_oversized_huge_page(self, ctx):
        # A huge page that cannot fit even after demotion must not block
        # hotter-than-threshold base pages behind it in the order.
        ks, km = build(ctx)
        # Fast tier: 14 MiB of maximally hot pages (nothing demotable
        # under the strictly-colder rule) plus 1 MiB occupied directly
        # on the tier (regions are 2 MiB-granular; this stands in for
        # sub-region fragmentation) -- room for base pages but not for
        # a 2 MiB huge page.
        fill = alloc(ctx, ks, 14, FASTEST_TIER)
        ctx.tiers.fast.alloc(1 * MB)
        fill_heads = np.arange(
            fill.base_vpn, fill.end_vpn, SUBPAGES_PER_HUGE
        )
        ks.main_bin[fill_heads] = 15
        huge = alloc(ctx, ks, 2, 1)
        basereg = alloc(ctx, ks, 2, 1, thp=False)
        base_vpns = [basereg.base_vpn, basereg.base_vpn + 1]
        ks.thresholds = type(ks.thresholds)(hot=10, warm=5, cold=3)
        ks.main_bin[huge.base_vpn] = 15   # hottest: tried first
        for v in base_vpns:
            ks.main_bin[v] = 14
        ks.promotion_queue.update([huge.base_vpn, *base_vpns])
        km._promote()
        # The huge page stayed queued on capacity; the base pages behind
        # it were promoted anyway (pre-fix the loop broke at the huge
        # page and never reached them).
        assert ctx.space.page_tier[huge.base_vpn] == 1
        assert huge.base_vpn in ks.promotion_queue
        for v in base_vpns:
            assert ctx.space.page_tier[v] == FASTEST_TIER
            assert v not in ks.promotion_queue

    def test_promotion_skip_budget_bounds_work(self, ctx):
        # More oversized candidates than MAX_PROMOTE_SKIPS: the loop
        # gives up after the budget instead of scanning the whole queue.
        ks, km = build(ctx)
        fill = alloc(ctx, ks, 16, FASTEST_TIER)  # fast tier full
        fill_heads = np.arange(
            fill.base_vpn, fill.end_vpn, SUBPAGES_PER_HUGE
        )
        ks.main_bin[fill_heads] = 15
        huge = alloc(ctx, ks, 20, 1)
        huge_heads = np.arange(
            huge.base_vpn, huge.end_vpn, SUBPAGES_PER_HUGE
        )
        ks.thresholds = type(ks.thresholds)(hot=10, warm=5, cold=3)
        ks.main_bin[huge_heads] = 15
        ks.promotion_queue.update(huge_heads.tolist())
        km._promote()
        # Nothing fit, nothing was dropped from the queue.
        assert len(ks.promotion_queue) == len(huge_heads)
        assert all(
            ctx.space.page_tier[h] == 1
            for h in huge_heads
        )
