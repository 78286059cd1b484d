"""The 16-bin exponential access histogram."""

import numpy as np
import pytest

from repro.core.histogram import NUM_BINS, AccessHistogram, bin_of, bin_of_array


class TestBinOf:
    def test_edges(self):
        assert bin_of(0) == 0
        assert bin_of(1) == 0
        assert bin_of(2) == 1
        assert bin_of(3) == 1
        assert bin_of(4) == 2
        assert bin_of(1023) == 9
        assert bin_of(1024) == 10

    def test_top_bin_unbounded(self):
        assert bin_of(1 << 15) == 15
        assert bin_of(1 << 40) == 15

    def test_vectorised_matches_scalar(self):
        values = np.array([0, 1, 2, 3, 7, 8, 100, 512, 1 << 20])
        assert list(bin_of_array(values)) == [bin_of(int(v)) for v in values]

    def test_power_of_two_boundaries_exact(self):
        """``2^k - 1`` vs ``2^k`` vs ``2^k + 1`` for every k an int64 can
        hold.  The float path (``floor(log2(h))``) rounds ``2^k - 1`` up
        to bin ``k`` once ``k`` exceeds the 53-bit double mantissa; the
        integer path must agree with the scalar ``bit_length`` math
        everywhere."""
        ks = np.arange(1, 63)
        for offset in (-1, 0, 1):
            values = (np.int64(1) << ks) + offset
            got = bin_of_array(values)
            expected = [bin_of(int(v)) for v in values]
            assert list(got) == expected, f"offset {offset}"

    def test_random_int64_and_edge_values_match_scalar(self):
        """Random values over the whole int64 range, negatives, 0, 1,
        ``2^62`` and both int64 limits bin as the scalar path does."""
        rng = np.random.default_rng(5)
        info = np.iinfo(np.int64)
        values = np.concatenate([
            rng.integers(info.min, info.max, 50_000, dtype=np.int64),
            rng.integers(-10, 1 << 17, 50_000, dtype=np.int64),
            np.array([-(1 << 40), -2, -1, 0, 1, 1 << 62,
                      info.min, info.max], dtype=np.int64),
        ])
        got = bin_of_array(values)
        assert got.dtype == np.int64
        assert got.tolist() == [bin_of(v) for v in values.tolist()]

    def test_input_array_not_mutated(self):
        values = np.array([5, 1 << 40, 0], dtype=np.int64)
        before = values.copy()
        bin_of_array(values)
        assert (values == before).all()


class TestHistogram:
    def test_fixed_at_16_bins(self):
        with pytest.raises(ValueError):
            AccessHistogram(num_bins=8)
        assert AccessHistogram().num_bins == NUM_BINS == 16

    def test_add_move_remove(self):
        hist = AccessHistogram()
        hist.add(3, 512)
        hist.move(3, 5, 512)
        assert hist.bins[3] == 0
        assert hist.bins[5] == 512
        hist.remove(5, 512)
        assert hist.total_pages == 0

    def test_move_same_bin_noop(self):
        hist = AccessHistogram()
        hist.add(3)
        hist.move(3, 3)
        assert hist.bins[3] == 1

    def test_negative_bin_detected(self):
        hist = AccessHistogram()
        with pytest.raises(ValueError):
            hist.remove(2, 1)

    def test_cool_shifts_left(self):
        """Cooling = halving hotness = one-bin left shift (§4.2.2)."""
        hist = AccessHistogram()
        hist.bins[:] = np.arange(16)
        hist.cool()
        # bin0 absorbs old bin1; others shift down; top empties.
        assert hist.bins[0] == 0 + 1
        assert hist.bins[1] == 2
        assert hist.bins[14] == 15
        assert hist.bins[15] == 0

    def test_cool_conserves_pages(self):
        hist = AccessHistogram()
        hist.bins[:] = np.arange(16)
        total = hist.total_pages
        hist.cool()
        assert hist.total_pages == total

    def test_cool_matches_halved_hotness(self):
        """The shift must agree with recomputing bins from halved counts."""
        rng = np.random.default_rng(0)
        hotness = rng.integers(1, 1 << 14, 500)
        hist = AccessHistogram()
        for h in hotness:
            hist.add(bin_of(int(h)))
        hist.cool()
        expected = AccessHistogram()
        for h in hotness:
            expected.add(bin_of(int(h) >> 1))
        assert np.array_equal(hist.bins, expected.bins)

    def test_rebuild(self):
        hist = AccessHistogram()
        bins = np.array([0, 0, 3, 15, 15])
        weights = np.array([1, 1, 512, 1, 512])
        hist.rebuild(bins, weights)
        assert hist.bins[0] == 2
        assert hist.bins[3] == 512
        assert hist.bins[15] == 513

    def test_pages_at_or_above(self):
        hist = AccessHistogram()
        hist.add(10, 100)
        hist.add(12, 50)
        hist.add(2, 7)
        assert hist.pages_at_or_above(10) == 150
        assert hist.pages_at_or_above(11) == 50
        assert hist.bytes_at_or_above(10) == 150 * 4096

    def test_snapshot_is_copy(self):
        hist = AccessHistogram()
        snap = hist.snapshot()
        snap[0] = 99
        assert hist.bins[0] == 0
