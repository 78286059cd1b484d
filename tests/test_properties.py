"""Property-based tests (hypothesis) over the core data structures."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.histogram import AccessHistogram, bin_of, bin_of_array
from repro.core.split import skewness_factors, utilization_factors
from repro.core.thresholds import adapt_thresholds
from repro.mem.page_table import PageTable
from repro.mem.pages import SUBPAGES_PER_HUGE
from repro.mem.tiers import FASTEST_TIER
from repro.pebs.events import AccessBatch
from repro.pebs.sampler import PEBSSampler, SamplerConfig
from repro.workloads.distributions import ZipfSampler

hotness_values = st.integers(min_value=0, max_value=1 << 40)


class TestHistogramProperties:
    @given(hotness_values)
    def test_bin_of_in_range(self, h):
        assert 0 <= bin_of(h) <= 15

    @given(hotness_values)
    def test_bin_of_monotone_under_halving(self, h):
        """Halving hotness never raises the bin, drops it by at most 1."""
        before = bin_of(h)
        after = bin_of(h >> 1)
        assert after <= before
        assert before - after <= 1

    @given(st.lists(hotness_values, min_size=1, max_size=200))
    def test_vectorised_bins_match_scalar(self, values):
        arr = np.array(values, dtype=np.int64)
        assert list(bin_of_array(arr)) == [bin_of(v) for v in values]

    @given(st.lists(st.tuples(st.integers(0, 15), st.integers(1, 512)),
                    min_size=1, max_size=100))
    def test_cooling_conserves_page_count(self, adds):
        hist = AccessHistogram()
        for bin_idx, weight in adds:
            hist.add(bin_idx, weight)
        total = hist.total_pages
        hist.cool()
        assert hist.total_pages == total

    @given(st.lists(st.integers(1, (1 << 15) - 1), min_size=1, max_size=300))
    def test_cooling_equals_rebuild_from_halved(self, hotnesses):
        """Below the unbounded top bin, the shift is exactly a halving.

        Pages in the top bin may stay there after halving (hotness
        >= 2^16): that is the paper's "checks the bin index of cooled
        pages and corrects the histogram if necessary" case, handled by
        the counter-driven rebuild in `KSampled.cool`.
        """
        hist = AccessHistogram()
        for h in hotnesses:
            hist.add(bin_of(h))
        hist.cool()
        expected = AccessHistogram()
        for h in hotnesses:
            expected.add(bin_of(h >> 1))
        assert np.array_equal(hist.bins, expected.bins)

    def test_top_bin_shift_needs_correction(self):
        """The documented top-bin discrepancy: 2^16 halves within bin 15."""
        hist = AccessHistogram()
        hist.add(bin_of(1 << 16))
        hist.cool()
        assert hist.bins[14] == 1  # the shift moved it down...
        assert bin_of((1 << 16) >> 1) == 15  # ...but the true bin is 15


class TestThresholdProperties:
    @given(
        st.lists(st.integers(0, 2000), min_size=16, max_size=16),
        st.integers(1, 10_000),
    )
    def test_invariants(self, bins, fast_pages):
        hist = AccessHistogram()
        hist.bins[:] = bins
        t = adapt_thresholds(hist, fast_pages * 4096)
        # hot == 16 means even the top bin overflows DRAM: empty hot set.
        assert 1 <= t.hot <= 16
        assert t.warm in (t.hot, t.hot - 1)
        assert t.cold == max(t.warm - 1, 0)
        # The identified hot set always fits the fast tier... unless the
        # hot threshold is pinned at the minimum of 1.
        hot_pages = int(hist.bins[t.hot :].sum())
        if t.hot > 1:
            assert hot_pages * 4096 <= fast_pages * 4096

    @given(st.lists(st.integers(0, 2000), min_size=16, max_size=16))
    def test_monotone_in_capacity(self, bins):
        hist = AccessHistogram()
        hist.bins[:] = bins
        hots = [adapt_thresholds(hist, pages * 4096).hot
                for pages in (10, 100, 1000, 10_000, 100_000)]
        assert hots == sorted(hots, reverse=True)


class TestSamplerProperties:
    @given(
        st.integers(1, 97),
        st.lists(st.integers(1, 500), min_size=1, max_size=20),
    )
    @settings(max_examples=40)
    def test_total_samples_exact(self, period, batch_sizes):
        """Across any batching, samples == floor(total / period)."""
        sampler = PEBSSampler(SamplerConfig(load_period=period,
                                            store_period=10**9))
        total = 0
        for size in batch_sizes:
            sampler.sample(AccessBatch.loads(np.arange(size)))
            total += size
        assert sampler.total_samples == total // period

    @given(st.integers(2, 1000))
    @settings(max_examples=30)
    def test_sampled_positions_uniform_stride(self, period):
        sampler = PEBSSampler(SamplerConfig(load_period=period,
                                            store_period=10**9))
        samples = sampler.sample(AccessBatch.loads(np.arange(period * 5)))
        diffs = np.diff(samples.vpn)
        assert (diffs == period).all()


class TestSkewnessProperties:
    @given(st.lists(st.integers(0, 100), min_size=SUBPAGES_PER_HUGE,
                    max_size=SUBPAGES_PER_HUGE))
    @settings(max_examples=30)
    def test_non_negative(self, counts):
        arr = np.array([counts], dtype=np.int64)
        skew = skewness_factors(arr, 512)
        assert skew[0] >= 0.0

    @given(st.integers(1, 256), st.integers(1, 64))
    @settings(max_examples=30)
    def test_concentration_raises_skewness(self, hot_pages, count):
        """Same total accesses on fewer subpages -> higher skewness."""
        total = hot_pages * count * 2
        wide = np.zeros((1, SUBPAGES_PER_HUGE), dtype=np.int64)
        wide[0, : hot_pages * 2] = count
        narrow = np.zeros((1, SUBPAGES_PER_HUGE), dtype=np.int64)
        narrow[0, :hot_pages] = count * 2
        s_wide = skewness_factors(wide, 512)[0]
        s_narrow = skewness_factors(narrow, 512)[0]
        assert s_narrow > s_wide


class TestPageTableProperties:
    @given(st.lists(st.integers(0, 1 << 27), min_size=1, max_size=60,
                    unique=True))
    @settings(max_examples=30)
    def test_map_unmap_roundtrip(self, vpns):
        pt = PageTable()
        for vpn in vpns:
            pt.map_base(vpn, FASTEST_TIER)
        assert pt.mapped_vpns == len(vpns)
        for vpn in vpns:
            assert pt.lookup(vpn) is not None
            pt.unmap(vpn)
        assert pt.mapped_vpns == 0
        assert all(pt.lookup(v) is None for v in vpns)


class TestZipfProperties:
    @given(st.integers(2, 5000), st.floats(0.0, 2.0))
    @settings(max_examples=30)
    def test_popularity_sums_to_one(self, n, alpha):
        sampler = ZipfSampler(n, alpha)
        total = sum(sampler.popularity(r) for r in range(min(n, 50)))
        assert 0.0 < total <= 1.0 + 1e-9

    @given(st.integers(10, 2000))
    @settings(max_examples=20)
    def test_popularity_monotone(self, n):
        sampler = ZipfSampler(n, alpha=1.0)
        pops = [sampler.popularity(r) for r in range(0, min(n, 20))]
        assert all(a >= b - 1e-12 for a, b in zip(pops, pops[1:]))
