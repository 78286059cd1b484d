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


#: Largest guide table: 2**20 int32 buckets, 4 MiB.
_MAX_BUCKETS = 1 << 20


class ZipfSampler:
    """Zipf(alpha) sampler over ranks ``0..n-1`` via inverse-CDF lookup.

    Rank 0 is the most popular.  Sampling is a guide-table inversion
    that is *bit-identical* to ``np.searchsorted(cdf, u, side="left")``
    (every comparison is against the same float64 CDF entries) in one
    table gather plus a fixed number of whole-array passes:

    * a uniform grid of ``K`` buckets over [0, 1) is inverted once at
      construction (``guide[j] = lower_bound(cdf, j/K)``, int32);
    * a draw ``u`` starts at ``guide[floor(u*K)]`` and takes the same
      greedy steps as every other draw: ``step`` runs over the powers of
      two below ``span + 1``, and a draw advances by ``step`` exactly
      when the CDF entry it would pass is still ``< u``.  ``span`` is
      the widest bucket's rank count, so the steps cover every answer.

    ``K`` starts at ~4 buckets per rank and doubles until no bucket
    holds two CDF entries -- one step then resolves every draw -- or
    it reaches ``2**20`` (a 4 MiB table; more ranks per bucket, more
    steps).  ``K`` is a power of two, so ``u * K`` is exact for every
    float64 ``u`` in [0, 1): ``j = floor(u * K)`` is at most ``K - 1``
    and ``j / K <= u < (j + 1) / K``.  The answer therefore lies in
    ``[guide[j], guide[j+1]]`` whatever ``K`` is, so ``K`` sizes the
    table and never changes a draw.  No upper bound is checked: the
    CDF is monotone and ``cdf[guide[j+1]] >= (j+1)/K > u``, so a step
    past ``guide[j+1]`` always fails, and the CDF is padded with 1.0
    entries so that every probe index is in range.
    """

    def __init__(self, n: int, alpha: float = 0.99):
        if n <= 0:
            raise ValueError("n must be positive")
        if alpha < 0:
            raise ValueError("alpha must be non-negative")
        self.n = int(n)
        self.alpha = float(alpha)
        weights = 1.0 / np.power(np.arange(1, self.n + 1, dtype=np.float64), alpha)
        cdf = np.cumsum(weights)
        cdf /= cdf[-1]
        # Bucket j holds the entries c < 1 with floor(c*K) == j (c*K is
        # exact), so lower_bound(cdf, j/K) counts the entries in buckets
        # below j.
        inner = cdf[cdf < 1.0]
        K = 1 << min(17, max(8, self.n.bit_length() + 2))
        while True:
            bucket = (inner * K).astype(np.int64)
            if K == _MAX_BUCKETS or not (bucket[1:] == bucket[:-1]).any():
                break
            K <<= 1
        self._K = K
        # Rank r is the guide of the buckets after bucket[r-1] up to
        # bucket[r].  Built from per-rank arrays: a freed K-sized
        # temporary would raise malloc's mmap threshold and so the RSS.
        self._guide = np.repeat(np.arange(len(inner) + 1, dtype=np.int32),
                                np.diff(bucket, prepend=-1, append=K - 1))
        span = int(np.unique(bucket, return_counts=True)[1].max(initial=0))
        self._steps = [1 << b for b in reversed(range(span.bit_length()))]
        # _probe[r] == cdf[r - 1]: a step from r probes _probe[step:][r].
        self._probe = np.concatenate(([0.0], cdf, np.ones(span)))
        self._cdf = self._probe[1:self.n + 1]

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw ``size`` ranks (int64)."""
        u = rng.random(size)
        rank = self._guide[(u * self._K).astype(np.int64)].astype(np.int64)
        for step in self._steps:
            np.add(rank, step, out=rank, where=self._probe[step:][rank] < u)
        return rank

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
    component indices, equal to ``searchsorted(cdf, u, side="left")``:
    the count of CDF edges below ``u``, summed edge by edge.  An edge at
    or above 1.0 is below no ``u`` in [0, 1), so it is skipped.
    """
    fractions = np.asarray(fractions, dtype=np.float64)
    cdf = np.cumsum(fractions / fractions.sum())
    u = rng.random(size)
    pick = np.zeros(size, dtype=np.int8)
    for edge in cdf[cdf < 1.0]:
        pick += u > edge
    return pick
