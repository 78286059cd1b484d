"""Virtual address space: regions, THP mapping, per-page arrays, RSS.

The address space owns:

* a bump-with-recycling virtual page allocator handing out 2 MiB-aligned
  regions to workloads;
* the per-vpn numpy arrays that are the one record of every mapping:
  ``page_tier`` (backing tier, or unmapped) and ``page_huge`` (covered
  by a 2 MiB mapping), plus the ``touched``/``ref_bit`` access bits.
  A page walk's cost depends only on the mapping size, so the TLB takes
  the walk depth from ``page_huge`` (see
  :data:`repro.mem.pages.WALK_LEVELS_HUGE`);
* resident-set-size accounting, including huge-page *bloat*: a huge page
  contributes its full 2 MiB to RSS even when only a few subpages were
  ever touched, which is exactly the Btree pathology of §6.2.5
  (RSS 38.3 GB mapped vs 15.2 GB touched).

All mapping mutations (map, unmap, migrate, split, collapse) go through
this class, which checks each call's shape against the arrays before it
moves any bytes, so tier accounting can never drift from them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.mem.pages import (
    BASE_PAGE_SIZE,
    HUGE_PAGE_SIZE,
    HUGE_SHIFT,
    SUBPAGES_PER_HUGE,
    hpn_to_vpn,
)
from repro.mem.tiers import (
    FASTEST_TIER,
    OutOfMemoryError,
    TIER_UNMAPPED,
    TieredMemory,
    tier_label,
)


@dataclass
class Region:
    """A contiguous virtual allocation made by a workload."""

    region_id: int
    name: str
    base_vpn: int
    num_vpns: int
    thp: bool
    live: bool = True

    @property
    def nbytes(self) -> int:
        return self.num_vpns * BASE_PAGE_SIZE

    @property
    def end_vpn(self) -> int:
        return self.base_vpn + self.num_vpns


class AddressSpace:
    """Mapping state for one simulated process over an N-tier stack."""

    #: Live wiring the checkpoint walk leaves out (``repro.snapshot``).
    _CHECKPOINT_EXCLUDE = frozenset({"_unmap_listeners"})

    def __init__(self, tiers: TieredMemory, virtual_bytes: Optional[int] = None):
        self.tiers = tiers
        if virtual_bytes is None:
            # Enough virtual room for the whole machine plus recycling slack.
            virtual_bytes = tiers.total_capacity_bytes() * 2
        self.num_vpns = int(np.ceil(virtual_bytes / BASE_PAGE_SIZE))
        # Round the virtual space up to a whole number of huge slots.
        self.num_vpns = (
            (self.num_vpns + SUBPAGES_PER_HUGE - 1) >> HUGE_SHIFT
        ) << HUGE_SHIFT
        self.num_hpns = self.num_vpns >> HUGE_SHIFT

        #: tier backing each 4 KiB vpn; TIER_UNMAPPED (-1) when unmapped.
        self.page_tier = np.full(self.num_vpns, TIER_UNMAPPED, dtype=np.int8)
        #: True when the vpn is covered by a 2 MiB mapping.
        self.page_huge = np.zeros(self.num_vpns, dtype=bool)
        #: True once the vpn has ever been accessed (written or read).
        self.touched = np.zeros(self.num_vpns, dtype=bool)
        #: hardware reference bit, cleared by scanning policies.
        self.ref_bit = np.zeros(self.num_vpns, dtype=bool)

        self._regions: Dict[int, Region] = {}
        self._next_region_id = 0
        self._bump_vpn = 0
        self._recycle: Dict[int, List[int]] = {}
        self._unmap_listeners: List[Callable[[int, int], None]] = []

    # -- listeners ---------------------------------------------------------

    def add_unmap_listener(self, fn: Callable[[int, int], None]) -> None:
        """Register ``fn(base_vpn, num_vpns)`` called when a range unmaps.

        Policies use this to reset their per-page metadata when a virtual
        range is freed and may later be recycled for a new allocation.
        """
        self._unmap_listeners.append(fn)

    def _notify_unmap(self, base_vpn: int, num_vpns: int) -> None:
        for fn in self._unmap_listeners:
            fn(base_vpn, num_vpns)

    # -- region allocation ---------------------------------------------------

    def _reserve_vpns(self, num_vpns: int) -> int:
        bucket = self._recycle.get(num_vpns)
        if bucket:
            return bucket.pop()
        base = self._bump_vpn
        if base + num_vpns > self.num_vpns:
            raise OutOfMemoryError(
                f"virtual space exhausted: need {num_vpns} vpns at {base}, "
                f"have {self.num_vpns}"
            )
        self._bump_vpn = base + num_vpns
        return base

    def alloc_region(
        self,
        nbytes: int,
        name: str = "",
        thp: bool = True,
        preferred: int = FASTEST_TIER,
    ) -> Region:
        """Allocate and map a region.

        The size rounds up to whole 2 MiB slots.  With ``thp`` True every
        slot is mapped as a huge page (transparent huge pages on a fresh
        anonymous mapping), else as 512 base pages.  Pages fill the
        ``preferred`` tier first and spill through the remaining tiers in
        fallback order (slower first, then faster); a region that does
        not fit raises :class:`OutOfMemoryError` before anything is
        reserved, charged or mapped.
        """
        if nbytes <= 0:
            raise ValueError("region size must be positive")
        num_vpns = -(-nbytes // BASE_PAGE_SIZE)
        # Regions are 2 MiB aligned so THP can always engage.
        num_vpns = ((num_vpns + SUBPAGES_PER_HUGE - 1) >> HUGE_SHIFT) << HUGE_SHIFT
        span = SUBPAGES_PER_HUGE if thp else 1
        fill = self._plan_fill(num_vpns // span, span * BASE_PAGE_SIZE, preferred)
        base_vpn = self._reserve_vpns(num_vpns)
        region = Region(
            region_id=self._next_region_id,
            name=name,
            base_vpn=base_vpn,
            num_vpns=num_vpns,
            thp=thp,
        )
        self._next_region_id += 1
        for tier, lo, hi in fill:
            self._map(slice(base_vpn + lo * span, base_vpn + hi * span),
                      tier, (hi - lo) * span, thp)
        self._regions[region.region_id] = region
        return region

    def _plan_fill(self, num_pages: int, page_bytes: int, preferred: int):
        """Where ``num_pages`` new pages of ``page_bytes`` go: the
        preferred tier takes as many as its available bytes hold, then
        each tier in fallback order does the same.  Returns the runs as
        ``(tier, lo, hi)`` page-index spans, in order; raises
        :class:`OutOfMemoryError` when the pages do not fit, before any
        state changes.  A tier's available bytes only fall while a fill
        maps (and a fault gate holds still within a batch), so this is
        exactly where placing page after page would put them."""
        runs = []
        lo = 0
        for tier in self.tiers.fallback_order(preferred):
            hi = min(num_pages,
                     lo + self.tiers.tier(tier).avail_bytes // page_bytes)
            if hi > lo:
                runs.append((tier, lo, hi))
                lo = hi
        if lo < num_pages:
            raise OutOfMemoryError(
                f"no tier can hold {(num_pages - lo) * page_bytes} bytes "
                f"({self._free_summary()})"
            )
        return runs

    def _free_summary(self) -> str:
        """Per-tier free bytes for OOM diagnostics."""
        return ", ".join(
            f"{tier_label(t.index, self.tiers)} free={t.free_bytes}"
            for t in self.tiers
        )

    def free_region(self, region: Region) -> None:
        """Unmap a region and release its frames."""
        if not region.live:
            raise ValueError(f"region {region.region_id} already freed")
        span = slice(region.base_vpn, region.end_vpn)
        # Regions are whole 2 MiB slots, so no huge mapping straddles the
        # range; subpages freed earlier by a split are already unmapped.
        self._transfer(freed=self._tier_bytes(self.page_tier[span]))
        self.page_tier[span] = TIER_UNMAPPED
        self.page_huge[span] = False
        self.touched[span] = False
        self.ref_bit[span] = False
        self._notify_unmap(region.base_vpn, region.num_vpns)
        region.live = False
        del self._regions[region.region_id]
        self._recycle.setdefault(region.num_vpns, []).append(region.base_vpn)

    # -- low-level map/unmap -------------------------------------------------

    def _map(self, vpns, tier: int, num_vpns: int, huge: bool) -> None:
        """Map ``num_vpns`` unmapped vpns (a slice or an index array) on
        ``tier``."""
        self.tiers.tier(tier).alloc(num_vpns * BASE_PAGE_SIZE)
        self.page_tier[vpns] = int(tier)
        self.page_huge[vpns] = huge

    def _tier_bytes(self, page_tiers: np.ndarray) -> np.ndarray:
        """Bytes each tier backs among ``page_tiers`` entries (4 KiB each;
        unmapped entries count for none)."""
        mapped = page_tiers[page_tiers != TIER_UNMAPPED]
        return np.bincount(mapped, minlength=len(self.tiers)) * BASE_PAGE_SIZE

    def _transfer(self, freed=None, taken=None) -> None:
        """Release ``freed[t]`` and claim ``taken[t]`` bytes on each tier t.

        Every claim is checked against the tier's free bytes plus its own
        release first, so a claim that does not fit raises
        :class:`OutOfMemoryError` before any tier changes.
        """
        freed = [0] * len(self.tiers) if freed is None else freed.tolist()
        taken = [] if taken is None else taken.tolist()
        for t, nbytes in enumerate(taken):
            tier = self.tiers.tier(t)
            room = tier.free_bytes + freed[t]
            if nbytes > room:
                raise OutOfMemoryError(
                    f"{tier.spec.name}: need {nbytes} bytes, only {room} "
                    f"free of {tier.capacity_bytes}"
                )
        for t, nbytes in enumerate(freed):
            if nbytes:
                self.tiers.tier(t).free(nbytes)
        for t, nbytes in enumerate(taken):
            if nbytes:
                self.tiers.tier(t).alloc(nbytes)

    # -- queries ---------------------------------------------------------------

    @property
    def regions(self) -> List[Region]:
        return list(self._regions.values())

    @property
    def rss_bytes(self) -> int:
        """Resident set size: every mapped byte (huge bloat included)."""
        return self.tiers.total_used()

    @property
    def touched_bytes(self) -> int:
        """Bytes of 4 KiB pages that were ever accessed."""
        return int(np.count_nonzero(self.touched & (self.page_tier >= 0))) * BASE_PAGE_SIZE

    def huge_page_ratio(self) -> float:
        """Fraction of mapped memory backed by huge pages (Table 2's RHP)."""
        mapped = int(np.count_nonzero(self.page_tier >= 0))
        if mapped == 0:
            return 0.0
        huge = int(np.count_nonzero(self.page_huge & (self.page_tier >= 0)))
        return huge / mapped

    def mapped_huge_hpns(self) -> np.ndarray:
        """hpn indices of currently huge-mapped slots."""
        base_is_huge = self.page_huge[:: SUBPAGES_PER_HUGE]
        return np.flatnonzero(base_is_huge)

    def mapping_heads(self, vpns: np.ndarray) -> np.ndarray:
        """Head vpn of the mapping covering each vpn: the 2 MiB-aligned
        head under a huge mapping, the vpn itself under a base page."""
        return np.where(
            self.page_huge[vpns], (vpns >> HUGE_SHIFT) << HUGE_SHIFT, vpns
        )

    def mapping_bytes(self, vpn: int) -> int:
        """Size of the mapping covering ``vpn`` (2 MiB or 4 KiB)."""
        return HUGE_PAGE_SIZE if self.page_huge[vpn] else BASE_PAGE_SIZE

    def tier_of_vpn(self, vpn: int) -> int:
        raw = int(self.page_tier[vpn])
        if raw == TIER_UNMAPPED:
            raise KeyError(f"vpn {vpn} not mapped")
        return raw

    def record_touch(self, vpns: np.ndarray) -> None:
        """Set touched/reference bits for a batch of accessed vpns."""
        self.touched[vpns] = True
        self.ref_bit[vpns] = True

    def demand_map(self, vpn: int, preferred: int) -> int:
        """Map one base page on first touch (e.g. a subpage freed by a
        huge-page split being written again).  Returns the tier used.

        The page-at-a-time reference that :meth:`demand_map_many` is
        tested against: the first tier in fallback order with room.
        """
        if self.page_tier[vpn] != TIER_UNMAPPED:
            raise ValueError(f"vpn {vpn} already mapped")
        for tier in self.tiers.fallback_order(preferred):
            if self.tiers.tier(tier).can_alloc(BASE_PAGE_SIZE):
                self._map(vpn, tier, 1, False)
                return tier
        raise OutOfMemoryError(
            f"no tier can hold {BASE_PAGE_SIZE} bytes ({self._free_summary()})"
        )

    def demand_map_many(self, vpns: np.ndarray, preferred: int) -> None:
        """Demand-map a batch of unmapped base pages (vectorized).

        Equivalent to calling :meth:`demand_map` per vpn in order: pages
        fill the preferred tier up to its available bytes, then spill
        through the remaining tiers in fallback order (slower first,
        then faster), and the allocation raises
        :class:`OutOfMemoryError` before any page maps when the batch
        does not fit.  A vpn that is mapped, or listed twice, raises
        ``ValueError`` before any page maps.
        """
        vpns = np.asarray(vpns, dtype=np.int64)
        if len(vpns) == 0:
            return
        if np.any(self.page_tier[vpns] != TIER_UNMAPPED):
            bad = int(vpns[self.page_tier[vpns] != TIER_UNMAPPED][0])
            raise ValueError(f"vpn {bad} already mapped")
        ordered = np.sort(vpns)
        repeats = ordered[1:][ordered[1:] == ordered[:-1]]
        if len(repeats):
            raise ValueError(f"vpn {int(repeats[0])} already mapped")
        for tier, lo, hi in self._plan_fill(len(vpns), BASE_PAGE_SIZE,
                                            preferred):
            self._map(vpns[lo:hi], tier, hi - lo, False)

    # -- mapping mutations used by the migration engine ------------------------

    def retarget(self, base_vpn: int, is_huge: bool, dst: int) -> int:
        """Move one mapping to ``dst``; returns bytes moved.

        ``base_vpn`` must head a mapping of shape ``is_huge`` (a huge
        mapping's 2 MiB-aligned head), else ``KeyError``.  Caller is
        responsible for cost accounting (copy + shootdown).
        """
        self._require_shape(np.array([base_vpn], dtype=np.int64), is_huge)
        src = int(self.page_tier[base_vpn])
        if src == int(dst):
            return 0
        nbytes = HUGE_PAGE_SIZE if is_huge else BASE_PAGE_SIZE
        self.tiers.tier(dst).alloc(nbytes)
        self.tiers.tier(src).free(nbytes)
        span = SUBPAGES_PER_HUGE if is_huge else 1
        self.page_tier[base_vpn : base_vpn + span] = int(dst)
        return nbytes

    def _require_shape(self, base_vpns: np.ndarray, is_huge: bool) -> None:
        """``KeyError`` unless every vpn heads a mapping of shape ``is_huge``."""
        ok = (self.page_tier[base_vpns] != TIER_UNMAPPED) & (
            self.page_huge[base_vpns] == is_huge
        )
        if is_huge:
            ok &= (base_vpns & (SUBPAGES_PER_HUGE - 1)) == 0
        if not ok.all():
            bad = int(base_vpns[~ok][0])
            raise KeyError(f"vpn {bad} mapping shape mismatch")

    def retarget_many(
        self, base_vpns: np.ndarray, is_huge: bool, dst: int
    ) -> int:
        """Move many same-shape mappings to ``dst``; returns pages moved.

        Every vpn must currently head a mapping of shape ``is_huge``
        (else ``KeyError``) on a tier other than ``dst`` (the caller
        filters same-tier no-ops); sources may span several tiers.  Tier
        accounting moves in one transfer per source tier, so a batch
        that does not fit ``dst`` raises :class:`OutOfMemoryError` before
        any page moves (the sequential path would fail midway; neither
        completes).
        """
        base_vpns = np.asarray(base_vpns, dtype=np.int64)
        n = len(base_vpns)
        if n == 0:
            return 0
        self._require_shape(base_vpns, is_huge)
        nbytes = HUGE_PAGE_SIZE if is_huge else BASE_PAGE_SIZE
        dst = int(dst)
        src_counts = np.bincount(
            self.page_tier[base_vpns], minlength=len(self.tiers)
        )
        if src_counts[dst]:
            raise ValueError(
                f"retarget_many: batch contains vpns already on tier "
                f"{tier_label(dst, self.tiers)}"
            )
        self.tiers.tier(dst).alloc(n * nbytes)
        for src, count in enumerate(src_counts.tolist()):
            if count:
                self.tiers.tier(src).free(count * nbytes)
        if is_huge:
            span = (
                base_vpns[:, None] + np.arange(SUBPAGES_PER_HUGE)[None, :]
            ).reshape(-1)
            self.page_tier[span] = int(dst)
        else:
            self.page_tier[base_vpns] = int(dst)
        return n

    def split_huge(self, hpn: int, subpage_tiers) -> dict:
        """Split huge page ``hpn`` into base pages at per-subpage tiers.

        ``subpage_tiers[j]`` is the destination tier index of subpage
        ``j``, or None to free it (never-touched, all-zero subpages are
        unmapped to reclaim bloat, §4.3.3).  Returns a small accounting
        dict (bytes freed / migrated) for the caller to charge.  Subpages
        that do not fit their tiers raise :class:`OutOfMemoryError`
        before anything changes.
        """
        base = hpn_to_vpn(hpn)
        if not self.page_huge[base]:
            raise ValueError(f"hpn {hpn} is not huge-mapped")
        src = int(self.page_tier[base])
        dst = np.array(
            [TIER_UNMAPPED if t is None else int(t) for t in subpage_tiers],
            dtype=np.int8,
        )
        freed = np.zeros(len(self.tiers), dtype=np.int64)
        freed[src] = HUGE_PAGE_SIZE
        self._transfer(freed=freed, taken=self._tier_bytes(dst))
        span = slice(base, base + SUBPAGES_PER_HUGE)
        self.page_tier[span] = dst
        self.page_huge[span] = False
        dropped = dst == TIER_UNMAPPED
        self.touched[span][dropped] = False
        moved = np.count_nonzero(~dropped & (dst != src))
        return {
            "bytes_freed": int(np.count_nonzero(dropped)) * BASE_PAGE_SIZE,
            "bytes_migrated": int(moved) * BASE_PAGE_SIZE,
            "src_tier": src,
        }

    def collapse_huge(self, hpn: int, tier: int) -> int:
        """Coalesce 512 base subpages back into one huge page on ``tier``.

        Returns bytes migrated (subpages that changed tier).  A huge page
        that does not fit ``tier`` once the subpages are released raises
        :class:`OutOfMemoryError` before anything changes.
        """
        base = hpn_to_vpn(hpn)
        span = self.page_tier[base : base + SUBPAGES_PER_HUGE]
        if np.any(span == TIER_UNMAPPED) or np.any(
            self.page_huge[base : base + SUBPAGES_PER_HUGE]
        ):
            raise ValueError(f"hpn {hpn} not fully base-mapped; cannot collapse")
        moved = int(np.count_nonzero(span != int(tier))) * BASE_PAGE_SIZE
        taken = np.zeros(len(self.tiers), dtype=np.int64)
        taken[int(tier)] = HUGE_PAGE_SIZE
        self._transfer(freed=self._tier_bytes(span), taken=taken)
        self.page_tier[base : base + SUBPAGES_PER_HUGE] = int(tier)
        self.page_huge[base : base + SUBPAGES_PER_HUGE] = True
        return moved

    # -- consistency (used by tests) -------------------------------------------

    def check_consistency(self) -> None:
        """Raise ``AssertionError`` when the arrays break the sanitizer's
        ``mapping-shape`` or ``tier-accounting`` check."""
        # Imported here because repro.check itself imports repro.mem.
        from repro.check.invariants import (
            CheckContext,
            check_mapping_shape,
            check_tier_accounting,
        )

        ctx = CheckContext(space=self, tiers=self.tiers)
        findings = check_mapping_shape(ctx) + check_tier_accounting(ctx)
        if findings:
            raise AssertionError("; ".join(str(f) for f in findings))
