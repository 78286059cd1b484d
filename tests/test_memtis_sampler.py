"""`ksampled`: sample processing, histograms, rHR/eHR, cooling."""

import numpy as np
import pytest

from repro.core.config import MemtisConfig
from repro.core.sampler import KSampled
from repro.mem.pages import SUBPAGES_PER_HUGE
from repro.mem.tiers import FASTEST_TIER
from repro.pebs.sampler import SampleBatch

from conftest import make_context

MB = 1024 * 1024


def make_ksampled(ctx, **overrides):
    config = MemtisConfig(**overrides).resolved(
        ctx.tiers.fast.capacity_bytes,
        ctx.tiers.fast.capacity_bytes + ctx.tiers.slowest.capacity_bytes,
    )
    return KSampled(config, ctx)


def samples_of(vpns, stores=None):
    vpns = np.asarray(vpns, dtype=np.int64)
    if stores is None:
        stores = np.zeros(len(vpns), dtype=bool)
    return SampleBatch(vpns, np.asarray(stores, dtype=bool))


class TestRegionLifecycle:
    def test_alloc_seeds_histogram_at_t_hot(self, ctx):
        ks = make_ksampled(ctx)
        region = ctx.space.alloc_region(4 * MB, thp=True)
        ks.on_region_alloc(region)
        t_hot = ks.thresholds.hot
        assert ks.hist.bins[t_hot] == region.num_vpns
        # Base histogram is deliberately NOT seeded at the threshold.
        assert ks.base_hist.bins[0] == region.num_vpns

    def test_alloc_seeds_huge_counter(self, ctx):
        ks = make_ksampled(ctx)
        region = ctx.space.alloc_region(2 * MB, thp=True)
        ks.on_region_alloc(region)
        hpn = region.base_vpn >> 9
        assert ks.meta.huge_count[hpn] == 1 << ks.thresholds.hot
        assert ks.meta.sub_count[region.base_vpn : region.end_vpn].sum() == 0

    def test_unmap_removes_pages_from_histograms(self, ctx):
        ks = make_ksampled(ctx)
        region = ctx.space.alloc_region(4 * MB, thp=True)
        ks.on_region_alloc(region)
        ks.process_samples(samples_of([region.base_vpn] * 5))
        ctx.space.free_region(region)
        ks.on_unmap(region.base_vpn, region.num_vpns)
        assert ks.hist.total_pages == 0
        assert ks.base_hist.total_pages == 0
        assert not ks.promotion_queue


class TestSampleProcessing:
    def test_huge_page_hotness_is_raw_count(self, ctx):
        ks = make_ksampled(ctx)
        region = ctx.space.alloc_region(2 * MB, thp=True)
        ks.on_region_alloc(region)
        head = region.base_vpn
        ks.process_samples(samples_of([head + 3, head + 9]))
        seed = 1 << ks.thresholds.hot
        assert ks.meta.huge_count[head >> 9] == seed + 2
        assert ks.meta.sub_count[head + 3] == 1

    def test_base_page_hotness_compensated(self, ctx):
        """H_i = C_i * nr_subpages for base pages (§4.1.2)."""
        ks = make_ksampled(ctx)
        region = ctx.space.alloc_region(2 * MB, thp=False)
        ks.on_region_alloc(region)
        vpn = region.base_vpn
        ks.process_samples(samples_of([vpn]))
        # One access -> hotness 512 -> bin 9.
        assert ks.main_bin[vpn] == 9
        assert ks.hist.bins[9] >= 1

    def test_histogram_weight_is_4k_granularity(self, ctx):
        """A huge page counts as 512 pages in its bin (§4.1.3)."""
        ks = make_ksampled(ctx)
        region = ctx.space.alloc_region(2 * MB, thp=True)
        ks.on_region_alloc(region)
        head = region.base_vpn
        # Push the huge page into a specific bin with many samples.
        ks.process_samples(samples_of([head] * 50))
        bin_idx = int(ks.main_bin[head])
        assert ks.hist.bins[bin_idx] == SUBPAGES_PER_HUGE

    def test_promotion_queue_only_capacity_pages(self, ctx):
        ks = make_ksampled(ctx)
        fast_region = ctx.space.alloc_region(
            2 * MB, thp=True, preferred=FASTEST_TIER)
        cap_region = ctx.space.alloc_region(
            2 * MB, thp=True, preferred=1)
        for region in (fast_region, cap_region):
            ks.on_region_alloc(region)
        ks.process_samples(samples_of(
            [fast_region.base_vpn] * 10 + [cap_region.base_vpn] * 10))
        assert cap_region.base_vpn in ks.promotion_queue
        assert fast_region.base_vpn not in ks.promotion_queue

    def test_rhr_counts_fast_tier_samples(self, ctx):
        ks = make_ksampled(ctx)
        fast_region = ctx.space.alloc_region(
            2 * MB, preferred=FASTEST_TIER)
        cap_region = ctx.space.alloc_region(
            2 * MB, preferred=1)
        ks.on_region_alloc(fast_region)
        ks.on_region_alloc(cap_region)
        ks.process_samples(samples_of(
            [fast_region.base_vpn] * 3 + [cap_region.base_vpn]))
        _ehr, rhr = ks.finish_estimation_window()
        assert rhr == pytest.approx(0.75)

    def test_freed_vpn_samples_skipped(self, ctx):
        ks = make_ksampled(ctx)
        region = ctx.space.alloc_region(2 * MB)
        ks.on_region_alloc(region)
        vpn = region.base_vpn
        ctx.space.free_region(region)
        ks.on_unmap(region.base_vpn, region.num_vpns)
        ks.process_samples(samples_of([vpn]))
        assert ks.total_samples == 0


class TestCooling:
    def test_cool_halves_and_rebuilds_consistently(self, ctx):
        ks = make_ksampled(ctx)
        region = ctx.space.alloc_region(4 * MB, thp=True)
        ks.on_region_alloc(region)
        head = region.base_vpn
        ks.process_samples(samples_of([head] * 40 + [head + 512] * 4))
        count_before = int(ks.meta.huge_count[head >> 9])
        ks.cool()
        assert ks.meta.huge_count[head >> 9] == count_before >> 1
        # Histogram totals must still cover every mapped 4 KiB page.
        assert ks.hist.total_pages == region.num_vpns
        assert ks.base_hist.total_pages == region.num_vpns

    def test_cooling_due_counting(self, ctx):
        ks = make_ksampled(ctx, cooling_interval_samples=8,
                           adaptation_interval_samples=4)
        region = ctx.space.alloc_region(2 * MB)
        ks.on_region_alloc(region)
        assert not ks.cooling_due()
        ks.process_samples(samples_of([region.base_vpn] * 8))
        assert ks.cooling_due()
        ks.cool()
        assert not ks.cooling_due()


class TestSplitAccounting:
    def test_on_split_reweights_histogram(self, ctx):
        ks = make_ksampled(ctx)
        region = ctx.space.alloc_region(
            2 * MB, thp=True, preferred=FASTEST_TIER)
        ks.on_region_alloc(region)
        head = region.base_vpn
        ks.process_samples(samples_of([head + j for j in range(8)] * 3))
        total_before = ks.hist.total_pages

        kept = np.zeros(SUBPAGES_PER_HUGE, dtype=bool)
        kept[:100] = True
        tiers = [FASTEST_TIER if j < 100 else None
                 for j in range(SUBPAGES_PER_HUGE)]
        ctx.space.split_huge(head >> 9, tiers)
        ks.on_split(head >> 9, kept)
        # 512-page huge entry replaced by 100 base entries.
        assert ks.hist.total_pages == total_before - SUBPAGES_PER_HUGE + 100
        assert ks.meta.huge_count[head >> 9] == 0
        # Freed subpages left the base histogram too.
        assert ks.base_hist.total_pages == 100

    def test_on_collapse_restores_huge_entry(self, ctx):
        ks = make_ksampled(ctx)
        region = ctx.space.alloc_region(
            2 * MB, thp=True, preferred=FASTEST_TIER)
        ks.on_region_alloc(region)
        head = region.base_vpn
        kept = np.ones(SUBPAGES_PER_HUGE, dtype=bool)
        ctx.space.split_huge(head >> 9, [FASTEST_TIER] * SUBPAGES_PER_HUGE)
        ks.on_split(head >> 9, kept)
        ks.meta.sub_count[head : head + SUBPAGES_PER_HUGE] = 3
        ctx.space.collapse_huge(head >> 9, FASTEST_TIER)
        ks.on_collapse(head >> 9)
        assert ks.main_weight[head] == SUBPAGES_PER_HUGE
        assert ks.meta.huge_count[head >> 9] == 3 * SUBPAGES_PER_HUGE
        assert ks.hist.total_pages == SUBPAGES_PER_HUGE


class TestDynamicPeriod:
    def test_period_rises_under_heavy_sampling(self):
        ctx = make_context(with_sampler=True, load_period=200)
        ks = make_ksampled(ctx)
        for _ in range(30):
            ks.update_period(batch_samples=10_000, batch_wall_ns=1e6)
        assert ctx.sampler.load_period > 200

    def test_static_period_mode(self):
        ctx = make_context(with_sampler=True, load_period=200)
        ks = make_ksampled(ctx, dynamic_period=False)
        for _ in range(30):
            ks.update_period(batch_samples=10_000, batch_wall_ns=1e6)
        assert ctx.sampler.load_period == 200
