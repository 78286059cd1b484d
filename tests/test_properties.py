"""Property-based tests (hypothesis) over the core data structures."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.histogram import AccessHistogram, bin_of, bin_of_array
from repro.core.split import skewness_factors, utilization_factors
from repro.core.thresholds import adapt_thresholds
from repro.mem.address_space import AddressSpace
from repro.mem.pages import BASE_PAGE_SIZE, SUBPAGES_PER_HUGE
from repro.mem.tiers import FASTEST_TIER, TieredMemory, dram_spec, nvm_spec
from repro.pebs.events import AccessBatch
from repro.pebs.sampler import PEBSSampler, SamplerConfig
from repro.workloads.distributions import ZipfSampler, mixture_pick
from repro.workloads.spec import BwavesWorkload, RomsWorkload

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
    @given(st.lists(st.integers(0, 4 * SUBPAGES_PER_HUGE - 1), min_size=1,
                    max_size=60, unique=True))
    @settings(max_examples=30)
    def test_map_unmap_roundtrip(self, offsets):
        tiers = TieredMemory.build(dram_spec(16 << 20), nvm_spec(64 << 20))
        space = AddressSpace(tiers)
        region = space.alloc_region(8 << 20, thp=True)
        for hpn in range(region.base_vpn >> 9, region.end_vpn >> 9):
            space.split_huge(hpn, [None] * SUBPAGES_PER_HUGE)
        vpns = region.base_vpn + np.array(offsets, dtype=np.int64)
        space.demand_map_many(vpns, FASTEST_TIER)
        assert np.count_nonzero(space.page_tier >= 0) == len(vpns)
        assert (space.page_tier[vpns] == FASTEST_TIER).all()
        assert tiers.fast.used_bytes == len(vpns) * BASE_PAGE_SIZE
        space.free_region(region)
        assert not (space.page_tier >= 0).any()
        assert tiers.total_used() == 0


class _FixedUniforms:
    """A stand-in generator whose ``random`` returns the given draws."""

    def __init__(self, u):
        self._u = np.asarray(u, dtype=np.float64)

    def random(self, size):
        assert size == len(self._u)
        return self._u


#: Guide tables of every shape: one-step tables at K = 2**8, 2**13 and
#: 2**19; the 2**20 cap with two steps (liblinear's sampler) and with
#: four (a million ranks); and n = 1, whose draws take no step at all.
_ZIPF_SAMPLERS = [ZipfSampler(n, alpha) for n, alpha in (
    (3, 0.99), (1_000, 0.99), (40_000, 0.99), (1_000_000, 0.99),
    (47_575, 1.25), (1, 0.99))]

#: Uniforms at the edges of [0, 1): the largest float below one, the
#: smallest subnormal and the smallest normal.
_EDGE_UNIFORMS = [0.0, float(np.nextafter(1.0, 0.0)), 5e-324,
                  float(np.finfo(np.float64).tiny)]


def _check_zipf_buckets(sampler, u):
    u = np.asarray(u, dtype=np.float64)
    K = sampler._K
    j = (u * K).astype(np.int64)
    assert (j >= 0).all() and (j <= K - 1).all()
    assert (j / K <= u).all() and (u < (j + 1) / K).all()
    got = sampler.sample(_FixedUniforms(u), len(u))
    np.testing.assert_array_equal(
        got, np.searchsorted(sampler._cdf, u, side="left"))


class TestZipfProperties:
    @given(st.sampled_from(range(len(_ZIPF_SAMPLERS))),
           st.lists(st.one_of(
               st.floats(0.0, 1.0, exclude_max=True, allow_subnormal=True),
               st.sampled_from(_EDGE_UNIFORMS)), min_size=1, max_size=64))
    @settings(max_examples=200)
    def test_bucket_bounds_hold_and_sample_is_searchsorted(self, which, u):
        """The guide-table bucket of any float64 in [0, 1) brackets it,
        so ``sample`` needs no fallback to equal ``searchsorted``."""
        _check_zipf_buckets(_ZIPF_SAMPLERS[which], u)

    @pytest.mark.parametrize("which", range(len(_ZIPF_SAMPLERS)))
    def test_every_bucket_edge_and_its_neighbours(self, which):
        sampler = _ZIPF_SAMPLERS[which]
        edges = np.arange(sampler._K, dtype=np.float64) / sampler._K
        cdf = sampler._cdf
        np.testing.assert_array_equal(
            sampler._guide, np.searchsorted(cdf, edges, side="left"))
        u = np.concatenate([
            edges,
            np.nextafter(edges, 0.0)[1:],
            np.nextafter(edges, 1.0),
            cdf,
            np.nextafter(cdf, 0.0),
            np.nextafter(cdf, 1.0),
            _EDGE_UNIFORMS,
        ])
        for chunk in np.array_split(u[u < 1.0], 8):
            _check_zipf_buckets(sampler, chunk)

    def test_samplers_cover_every_table_shape(self):
        shapes = {(s._K, len(s._steps)) for s in _ZIPF_SAMPLERS}
        assert shapes == {(1 << 8, 1), (1 << 13, 1), (1 << 19, 1),
                          (1 << 20, 4), (1 << 20, 2), (1 << 8, 0)}

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


def _mixture_cdf(fractions):
    fractions = np.asarray(fractions, dtype=np.float64)
    return np.cumsum(fractions / fractions.sum())


#: Every fraction list the workload generators pass to ``mixture_pick``.
_WORKLOAD_MIXTURES = [
    [0.85, 0.15],                     # btree
    [0.60, 0.30, 0.10],               # graph500
    [0.25, 0.55, 0.20],               # liblinear
    [0.45, 0.15, 0.25, 0.15],         # pagerank
    [0.96, 0.04],                     # silo
    [1 - BwavesWorkload.SCRATCH_ACCESS_SHARE - 0.25, 0.25,
     BwavesWorkload.SCRATCH_ACCESS_SHARE],
    [RomsWorkload.WINDOW_SHARE] + [a for _s, a in RomsWorkload.ARRAYS],
    [0.45, 0.25, 0.30],               # xsbench, lookup phase
    [0.88, 0.02, 0.10],               # xsbench, init phase
]


class TestMixturePick:
    @pytest.mark.parametrize("fractions", _WORKLOAD_MIXTURES + [
        [1.0],               # a single component
        [0.5, 0.0, 0.5],     # a zero-weight component
        [0.0, 1.0],          # a zero-weight first component
        [0.32, 0.28, 0.87],  # a CDF whose last entry rounds below 1
    ])
    def test_equals_searchsorted(self, fractions):
        cdf = _mixture_cdf(fractions)
        u = np.concatenate([
            np.random.default_rng(len(fractions)).random(50_000),
            cdf, np.nextafter(cdf, 0.0), np.nextafter(cdf, 2.0),
            _EDGE_UNIFORMS,
        ])
        u = u[u < 1.0]
        got = mixture_pick(_FixedUniforms(u), len(u), fractions)
        assert got.dtype == np.int8
        np.testing.assert_array_equal(
            got, np.searchsorted(cdf, u, side="left").astype(np.int8))

    def test_fixtures_round_both_ways(self):
        """graph500's CDF ends above 1 and another below the largest
        float under 1, so the skipped edge and a draw past the last edge
        are both exercised."""
        assert _mixture_cdf([0.60, 0.30, 0.10])[-1] > 1.0
        assert _mixture_cdf([0.32, 0.28, 0.87])[-1] < np.nextafter(1.0, 0.0)
