"""Access-pattern building blocks shared by the workload generators.

Two ingredients determine everything the paper's evaluation
differentiates systems on:

* the **popularity distribution** over pages (Zipf/Pareto-like skew,
  §4.1.3 "non-linear ... nature of page accesses"), and
* the **spatial layout** of popular pages -- whether hot 4 KiB pages
  are *contiguous* (hot huge pages have high utilisation; Liblinear,
  Fig. 3a) or *scattered* (a hot huge page holds only a few hot
  subpages; Silo, Fig. 3b).  The scatter map is what makes
  skewness-aware splitting pay off.
"""

from __future__ import annotations

from typing import Iterator, Optional

import numpy as np


def _bounded_lower_bound(
    cdf: np.ndarray, u: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> np.ndarray:
    """Vectorised exact lower bound of each ``u`` within ``[lo, hi]``.

    Preconditions (per element): every CDF entry before ``lo`` is < u,
    and ``cdf[hi-1] >= u`` or ``hi`` is the answer -- i.e. the lower
    bound lies in ``[lo, hi]``.  Runs a lockstep greedy binary descent:
    each step takes ``pos += step`` exactly when ``pos + step`` still
    satisfies ``cdf[pos+step-1] < u``, so ``pos`` accumulates the binary
    expansion of ``answer - lo``.
    """
    pos = lo.copy()
    span = int((hi - lo).max())
    step = 1 << (span.bit_length() - 1)
    last = len(cdf) - 1
    while step:
        cand = pos + step
        # The gather index is clipped for memory safety only: where the
        # clip bites, ``cand > hi`` already excludes the element.
        probe = cdf[np.minimum(cand - 1, last)]
        ok = (cand <= hi) & (probe < u)
        pos[ok] = cand[ok]
        step >>= 1
    return pos


class ZipfSampler:
    """Zipf(alpha) sampler over ranks ``0..n-1`` via inverse-CDF lookup.

    Rank 0 is the most popular.  Sampling is a guide-table inversion
    that is *bit-identical* to ``np.searchsorted(cdf, u, side="left")``
    (every comparison is against the same float64 CDF entries) while
    avoiding a full-depth binary search per draw:

    * a uniform grid of ``K`` buckets over [0, 1) is inverted once at
      construction (``guide[j] = lower_bound(cdf, j/K)``);
    * a draw whose bucket maps to a single rank (the common case: hot
      ranks own many buckets) is resolved by one table gather;
    * the rest descend the narrow ``[guide[j], guide[j+1]]`` range with
      a lockstep greedy binary search (a handful of gathers, not
      ``log2(n)`` probes into a multi-MB CDF).

    ``K`` is a power of two, so ``u * K`` is exact for every float64
    ``u`` in [0, 1): the bucket ``j = floor(u * K)`` is at most
    ``K - 1`` and ``j / K <= u < (j + 1) / K`` always holds, which
    keeps the answer inside ``[guide[j], guide[j+1]]``.
    """

    def __init__(self, n: int, alpha: float = 0.99):
        if n <= 0:
            raise ValueError("n must be positive")
        if alpha < 0:
            raise ValueError("alpha must be non-negative")
        self.n = int(n)
        self.alpha = float(alpha)
        weights = 1.0 / np.power(np.arange(1, self.n + 1, dtype=np.float64), alpha)
        self._cdf = np.cumsum(weights)
        self._cdf /= self._cdf[-1]
        # Guide-table resolution: ~4 buckets per rank, capped so the
        # table stays ~1 MB even for multi-million-page regions.
        self._K = 1 << min(17, max(8, self.n.bit_length() + 2))
        self._grid = np.arange(self._K + 1, dtype=np.float64) / self._K
        self._guide = np.searchsorted(self._cdf, self._grid, side="left")

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw ``size`` ranks (int64)."""
        u = rng.random(size)
        j = (u * self._K).astype(np.int64)
        lo = self._guide[j]
        hi = self._guide[j + 1]
        res = lo.copy()
        narrow = lo != hi
        if narrow.any():
            res[narrow] = _bounded_lower_bound(
                self._cdf, u[narrow], lo[narrow], hi[narrow]
            )
        return res

    def popularity(self, rank: int) -> float:
        """Probability mass of one rank (for analytical checks)."""
        lo = self._cdf[rank - 1] if rank > 0 else 0.0
        return float(self._cdf[rank] - lo)


class ScatterMap:
    """Rank-to-page-offset mapping controlling spatial hotness layout.

    ``mode="linear"``: rank r maps to offset r -- hot pages are a
    contiguous prefix, so the huge pages covering them are uniformly hot
    (high utilisation, Fig. 3a shape).

    ``mode="scatter"``: ranks map through a fixed random permutation --
    hot pages land uniformly across the whole region, so every huge page
    holds a few hot subpages and many cold ones (low utilisation / high
    skew, Fig. 3b shape).

    ``mode="clustered"``: ranks are scattered in groups of
    ``cluster_pages`` -- intermediate utilisation, used by workloads
    with node-sized locality (Btree nodes span a few 4 KiB pages).
    """

    def __init__(
        self,
        n: int,
        mode: str = "linear",
        seed: int = 7,
        cluster_pages: int = 4,
        shift: float = 0.0,
    ):
        self.n = int(n)
        self.mode = mode
        self.shift_pages = int(self.n * shift) % max(1, self.n)
        if mode == "linear":
            self._map: Optional[np.ndarray] = None
        elif mode == "scatter":
            self._map = np.random.default_rng(seed).permutation(self.n).astype(np.int64)
        elif mode == "clustered":
            if cluster_pages <= 0:
                raise ValueError("cluster_pages must be positive")
            num_clusters = -(-self.n // cluster_pages)
            cluster_order = np.random.default_rng(seed).permutation(num_clusters)
            offsets = (
                cluster_order[:, None] * cluster_pages
                + np.arange(cluster_pages)[None, :]
            ).reshape(-1)
            self._map = offsets[offsets < self.n][: self.n].astype(np.int64)
        else:
            raise ValueError(f"unknown scatter mode {mode!r}")

    def apply(self, ranks: np.ndarray) -> np.ndarray:
        if self._map is None:
            mapped = ranks
        else:
            mapped = self._map[ranks]
        if self.shift_pages:
            # Rotate so the hot run is not the first-allocated range --
            # otherwise a fast-tier-first allocator gets the optimal
            # placement for free and tiering quality never shows.
            return (mapped + self.shift_pages) % self.n
        return mapped


def sequential_offsets(start: int, length: int, region_pages: int) -> np.ndarray:
    """A wrap-around sequential scan of ``length`` pages from ``start``."""
    return (start + np.arange(length, dtype=np.int64)) % region_pages


def chunked(total: int, chunk: int) -> Iterator[int]:
    """Yield chunk sizes summing to ``total``."""
    remaining = int(total)
    while remaining > 0:
        yield min(chunk, remaining)
        remaining -= chunk


def mixture_pick(rng: np.random.Generator, size: int, fractions) -> np.ndarray:
    """Assign each of ``size`` draws to a mixture component.

    ``fractions`` are component weights summing to ~1; returns int8
    component indices.
    """
    fractions = np.asarray(fractions, dtype=np.float64)
    cdf = np.cumsum(fractions / fractions.sum())
    return np.searchsorted(cdf, rng.random(size), side="left").astype(np.int8)
