"""Split 4K/2M set-associative TLB with LRU replacement.

Huge pages matter to the paper through two mechanisms (§2.3):

1. *TLB reach* -- one 2 MiB entry covers 512x the address range of a
   4 KiB entry, cutting the miss rate of big-footprint workloads;
2. *walk cost* -- a 2 MiB mapping terminates the radix walk one level
   earlier (3 references vs 4).

Splitting a huge page destroys both benefits for the split range and
costs a TLB shootdown, which is why MEMTIS splits only hot, highly
skewed huge pages.  This module provides the mechanism that makes those
costs observable in the simulated runtime.

The TLB is simulated exactly, but (for speed) the engine feeds it a
strided substream of the access trace and scales the resulting miss
counts back up; the stride is part of :class:`TLBConfig` so experiments
can trade accuracy for time.

Each array keeps one store, per-set MRU-first tag lists, and runs a
substream through one of two bit-identical paths of
:mod:`repro.kernels.tlb_lru`: the per-lookup loop (the reference, and
the faster path for short substreams) or the batched path (set-grouped
and run-collapsed in numpy, then replayed).  By default the
substream's length per set picks; ``REPRO_SCALAR_KERNELS`` can pin
either path, and ``validate`` runs both and asserts identical hits,
misses and lists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.kernels.tlb_lru import lru_access
from repro.mem.pages import WALK_LEVELS_BASE, WALK_LEVELS_HUGE, vpn_to_hpn


@dataclass(frozen=True)
class TLBConfig:
    """Geometry of the split TLB.

    Defaults are scaled down with the simulated footprints so the
    TLB-reach-to-RSS proportions of the paper's testbed are preserved
    (a real 1536-entry STLB against a 40-500 MiB address space would
    never miss and the huge-page trade-off would vanish).

    ``sample_stride`` is the simulation-side decimation factor: the TLB
    observes every Nth access and the engine multiplies miss counts by N.
    Stride 1 simulates every access exactly.
    """

    entries_4k: int = 256
    entries_2m: int = 32
    ways: int = 4
    sample_stride: int = 16

    def __post_init__(self):
        for name in ("entries_4k", "entries_2m", "ways", "sample_stride"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.entries_4k % self.ways or self.entries_2m % self.ways:
            raise ValueError("entry counts must be divisible by ways")


@dataclass
class TLBStats:
    """Cumulative TLB behaviour over a run."""

    lookups: int = 0
    hits_4k: int = 0
    hits_2m: int = 0
    misses_4k: int = 0
    misses_2m: int = 0
    walk_levels: int = 0
    shootdowns: int = 0
    invalidated_entries: int = 0

    @property
    def misses(self) -> int:
        return self.misses_4k + self.misses_2m

    @property
    def hits(self) -> int:
        return self.hits_4k + self.hits_2m

    @property
    def miss_ratio(self) -> float:
        return self.misses / self.lookups if self.lookups else 0.0


class _SetAssocArray:
    """One set-associative LRU array: per-set MRU-first tag lists.

    The lists are the array's one store; :func:`lru_access` runs a
    lookup stream through them on the path its length per set picks.
    """

    __slots__ = ("num_sets", "ways", "sets")

    def __init__(self, entries: int, ways: int):
        self.num_sets = entries // ways
        self.ways = ways
        # Each set is a most-recently-used-first list of tags.
        self.sets: List[List[int]] = [[] for _ in range(self.num_sets)]

    def invalidate(self, tag: int) -> bool:
        entry_set = self.sets[tag % self.num_sets]
        if tag in entry_set:
            entry_set.remove(tag)
            return True
        return False

    def invalidate_range(self, lo: int, hi: int) -> int:
        """Remove every tag in ``[lo, hi)``; returns the number removed."""
        removed = 0
        for s in self.sets:
            kept = [t for t in s if not lo <= t < hi]
            removed += len(s) - len(kept)
            s[:] = kept
        return removed

    def flush(self) -> int:
        count = sum(len(s) for s in self.sets)
        for s in self.sets:
            s.clear()
        return count


class TLB:
    """Split 4K/2M TLB driven by the engine's strided substream."""

    def __init__(self, config: TLBConfig = TLBConfig()):
        self.config = config
        self.stats = TLBStats()
        self._tlb_4k = _SetAssocArray(config.entries_4k, config.ways)
        self._tlb_2m = _SetAssocArray(config.entries_2m, config.ways)

    def access_substream(self, vpns: np.ndarray, is_huge: np.ndarray) -> int:
        """Run the (already strided) substream through the TLB.

        ``is_huge[i]`` says whether vpn ``i`` is currently covered by a
        2 MiB mapping.  Returns the total page-walk levels incurred by
        this substream (un-scaled; the caller applies the stride factor).

        The 4K and 2M arrays are independent, so only each array's own
        order matters.  A substream of one mapping size (most of them)
        goes to its array whole; a mixed one splits by mapping size.
        Each half runs on the path its length picks; totals are
        order-independent even though the batched path regroups lookups
        by set.
        """
        stats = self.stats
        n = len(vpns)
        stats.lookups += n
        if n == 0:
            return 0
        huge_mask = np.asarray(is_huge, dtype=bool)
        num_huge = int(np.count_nonzero(huge_mask))
        hits_4k = misses_4k = hits_2m = misses_2m = 0
        if num_huge < n:
            hits_4k, misses_4k = lru_access(
                self._tlb_4k.sets, self.config.ways,
                vpns[~huge_mask] if num_huge else vpns,
            )
        if num_huge:
            hits_2m, misses_2m = lru_access(
                self._tlb_2m.sets, self.config.ways,
                vpn_to_hpn(vpns[huge_mask] if num_huge < n else vpns),
            )
        stats.hits_4k += hits_4k
        stats.misses_4k += misses_4k
        stats.hits_2m += hits_2m
        stats.misses_2m += misses_2m
        walk_levels = (
            misses_4k * WALK_LEVELS_BASE + misses_2m * WALK_LEVELS_HUGE
        )
        stats.walk_levels += walk_levels
        return walk_levels

    def shootdown_huge(self, hpn: int) -> None:
        """Invalidate the 2 MiB entry for ``hpn`` (split/collapse/migrate)."""
        self.stats.shootdowns += 1
        if self._tlb_2m.invalidate(hpn):
            self.stats.invalidated_entries += 1

    def shootdown_base(self, vpn: int) -> None:
        self.stats.shootdowns += 1
        if self._tlb_4k.invalidate(vpn):
            self.stats.invalidated_entries += 1

    def shootdown_base_many(self, vpns: np.ndarray) -> None:
        """Batch base-page shootdown (one IPI accounted per page)."""
        for vpn in np.asarray(vpns).tolist():
            self.shootdown_base(int(vpn))

    def shootdown_huge_many(self, hpns: np.ndarray) -> None:
        for hpn in np.asarray(hpns).tolist():
            self.shootdown_huge(int(hpn))

    def shootdown_range(self, base_vpn: int, num_vpns: int) -> None:
        """Invalidate every entry covering ``[base_vpn, base_vpn+num_vpns)``.

        Used on region free (munmap): both the 4K entries of the range
        and any 2M entry of a slot it overlaps must go -- a stale
        translation surviving a free would hit on a recycled mapping.
        Accounted as a single shootdown (one ranged IPI).
        """
        if num_vpns <= 0:
            return
        self.stats.shootdowns += 1
        removed = self._tlb_4k.invalidate_range(base_vpn, base_vpn + num_vpns)
        lo_hpn = vpn_to_hpn(base_vpn)
        hi_hpn = vpn_to_hpn(base_vpn + num_vpns - 1) + 1
        removed += self._tlb_2m.invalidate_range(lo_hpn, hi_hpn)
        self.stats.invalidated_entries += removed

    def flush(self) -> None:
        self.stats.shootdowns += 1
        self.stats.invalidated_entries += self._tlb_4k.flush()
        self.stats.invalidated_entries += self._tlb_2m.flush()

