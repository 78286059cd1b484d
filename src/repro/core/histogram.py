"""The 16-bin exponential page-access histogram (§4.1.3).

Bin ``n`` covers hotness ``[2^n, 2^(n+1))``; the last bin is unbounded
above.  The *value* of a bin is the number of distinct pages in that
hotness range **counted at 4 KiB granularity** -- a huge page
contributes 512 -- so ``bin_value * 4 KiB`` is directly comparable to
the fast tier capacity in Algorithm 1.

Cooling (§4.2.2) halves every hotness, which on an exponential scale is
a shift of each bin one position to the left; bins 0 and 1 merge into
bin 0 (hotness below 2 stays in bin 0) and the unbounded top bin keeps
any page whose halved hotness still lands there (the paper's "checks
the bin index of cooled pages and corrects the histogram if necessary"
-- exact correction happens when the caller rebuilds from the halved
counters, :meth:`rebuild`).
"""

from __future__ import annotations

import numpy as np

NUM_BINS = 16
_TOP = NUM_BINS - 1


def bin_of(hotness: int) -> int:
    """Histogram bin index of one hotness value."""
    if hotness < 2:
        return 0
    return min(_TOP, int(hotness).bit_length() - 1)


#: Lower edges of bins 1..15: bin ``n`` starts at ``2^n``.
_EDGES = np.int64(1) << np.arange(1, NUM_BINS, dtype=np.int64)


def bin_of_array(hotness: np.ndarray) -> np.ndarray:
    """Vectorised :func:`bin_of` for int64 hotness arrays.

    Exact integer binning: the number of bin edges ``2^1 .. 2^15`` at or
    below each value, in one binary search.  The float path
    (``floor(log2(h))``) rounds ``2^k - 1`` up to ``k`` once ``k``
    exceeds the 53-bit mantissa, disagreeing with the scalar
    :func:`bin_of` at power-of-two boundaries.
    """
    return np.searchsorted(_EDGES, hotness, side="right")


class AccessHistogram:
    """Page counts per exponential hotness bin."""

    def __init__(self, num_bins: int = NUM_BINS):
        if num_bins != NUM_BINS:
            raise ValueError(
                "bin math is fixed at 16 exponential bins (paper default)"
            )
        self.bins = np.zeros(num_bins, dtype=np.int64)

    @property
    def num_bins(self) -> int:
        return len(self.bins)

    @property
    def total_pages(self) -> int:
        return int(self.bins.sum())

    def add(self, bin_index: int, weight: int = 1) -> None:
        self.bins[bin_index] += weight

    def remove(self, bin_index: int, weight: int = 1) -> None:
        self.bins[bin_index] -= weight
        if self.bins[bin_index] < 0:
            raise ValueError(
                f"bin {bin_index} went negative removing weight {weight}"
            )

    def move(self, old_bin: int, new_bin: int, weight: int = 1) -> None:
        """Relocate a page whose hotness changed bins (the hot path)."""
        if old_bin == new_bin:
            return
        self.remove(old_bin, weight)
        self.add(new_bin, weight)

    def cool(self) -> None:
        """Shift all bins one left (halving on the exponential scale).

        The unbounded top bin is approximated as moving wholly down one
        bin; callers that track exact counters should follow with
        :meth:`rebuild` to apply the paper's top-bin correction.
        """
        self.bins[0] += self.bins[1]
        self.bins[1:-1] = self.bins[2:]
        self.bins[-1] = 0

    def rebuild(self, bin_indices: np.ndarray, weights: np.ndarray) -> None:
        """Recompute all bins from per-page bins and 4 KiB-page weights."""
        self.bins[:] = np.bincount(
            bin_indices, weights=weights, minlength=self.num_bins
        ).astype(np.int64)[: self.num_bins]

    # -- size helpers for Algorithm 1 --------------------------------------------

    def pages_at_or_above(self, bin_index: int) -> int:
        """4 KiB pages in bins >= ``bin_index``."""
        return int(self.bins[bin_index:].sum())

    def bytes_at_or_above(self, bin_index: int, page_bytes: int = 4096) -> int:
        return self.pages_at_or_above(bin_index) * page_bytes

    def snapshot(self) -> np.ndarray:
        return self.bins.copy()

    # -- checkpoint support -------------------------------------------------

    def state_dict(self) -> dict:
        return {"bins": self.bins.copy()}

    def load_state(self, state: dict) -> None:
        self.bins[:] = np.asarray(state["bins"], dtype=np.int64)
