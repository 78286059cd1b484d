"""Page migration engine with copy/remap/shootdown cost accounting.

Every tier change in the simulator -- promotion, demotion, huge-page
split, collapse -- flows through :class:`MigrationEngine`, which:

* performs the mapping mutation via the address space,
* invalidates affected TLB entries (a migrated or split page must be
  re-walked),
* accounts migration *traffic* in bytes (Fig. 10 reports normalised
  migration traffic; Nimble's 56x traffic blow-up in §6.2.4 is visible
  through this counter), and
* returns the wall-clock nanoseconds the operation costs.

Tier destinations are plain indices (0 = fastest).  A move to a
lower-numbered tier is a promotion, to a higher-numbered tier a
demotion.  On machines with more than two tiers, a demotion into an
intermediate tier that is full triggers a **demotion cascade**: the
engine makes room by pushing the tier's lowest-vpn resident pages one
tier further down, recursively, before the requested move lands.  The
cascade can never fire on a two-tier machine (the only demotion target
is the terminal tier, which keeps the historical strict-OOM behaviour).

Whether those nanoseconds extend the application's critical path is the
*caller's* decision: fault-path promotions (AutoNUMA, TPP, ...) charge
them into the runtime, while background daemons (MEMTIS `kmigrated`)
absorb them into daemon budget only.  This split is the paper's central
"never extend the critical path" property (§3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.mem.address_space import AddressSpace
from repro.mem.pages import BASE_PAGE_SIZE, HUGE_PAGE_SIZE, SUBPAGES_PER_HUGE, hpn_to_vpn
from repro.mem.tlb import TLB


@dataclass(frozen=True)
class MigrationCostParams:
    """Cost constants for migration operations.

    Defaults approximate Linux `migrate_pages` behaviour: a few
    microseconds of fixed overhead per page (unmap, copy setup, remap)
    plus copy time at the *slower* tier's bandwidth, and an IPI-based
    TLB shootdown in the microsecond range.
    """

    per_page_fixed_ns: float = 1_500.0
    copy_bandwidth_gbps: float = 10.0
    shootdown_ns: float = 4_000.0
    split_fixed_ns: float = 25_000.0
    collapse_fixed_ns: float = 30_000.0

    def copy_ns(self, nbytes: int) -> float:
        return nbytes / (self.copy_bandwidth_gbps * 1e9) * 1e9


@dataclass
class MigrationStats:
    """Cumulative migration behaviour over a run.

    ``cascade_pages``/``cascade_bytes`` count pages moved by demotion
    cascades (intermediate tier full; N >= 3 tiers only).  They are
    exported in results only when non-zero so two-tier runs keep their
    historical result layout.
    """

    promoted_bytes: int = 0
    demoted_bytes: int = 0
    promoted_pages: int = 0
    demoted_pages: int = 0
    splits: int = 0
    collapses: int = 0
    split_freed_bytes: int = 0
    split_migrated_bytes: int = 0
    critical_path_ns: float = 0.0
    background_ns: float = 0.0
    cascade_pages: int = 0
    cascade_bytes: int = 0

    @property
    def traffic_bytes(self) -> int:
        """Total bytes moved between tiers (both directions + split moves)."""
        return self.promoted_bytes + self.demoted_bytes + self.split_migrated_bytes


class MigrationEngine:
    """Executes tier changes over an address space with cost accounting."""

    #: Live wiring the checkpoint walk leaves out (``repro.snapshot``).
    _CHECKPOINT_EXCLUDE = frozenset({"tracer"})

    def __init__(
        self,
        space: AddressSpace,
        tlb: Optional[TLB] = None,
        params: MigrationCostParams = MigrationCostParams(),
        tracer=None,
    ):
        from repro.obs.tracer import NULL_TRACER

        self.space = space
        self.tlb = tlb
        self.params = params
        self.stats = MigrationStats()
        self.tracer = tracer if tracer is not None else NULL_TRACER

    # -- helpers ----------------------------------------------------------

    def _charge(self, ns: float, critical: bool) -> float:
        if critical:
            self.stats.critical_path_ns += ns
        else:
            self.stats.background_ns += ns
        return ns

    def _account_move(self, nbytes: int, src: int, dst: int) -> None:
        if int(dst) < int(src):
            self.stats.promoted_bytes += nbytes
            self.stats.promoted_pages += 1
        else:
            self.stats.demoted_bytes += nbytes
            self.stats.demoted_pages += 1

    def charge_side_copy(self, nbytes: int, critical: bool = False) -> float:
        """Charge the cost of a page copy that moved no mapping.

        Non-exclusive/transactional schemes (Nomad) pay for copies that
        never become migrations: an aborted transactional promotion has
        copied the page before the concurrent write rolled it back.  The
        bus time is real; the mapping is untouched, so no tier
        accounting or traffic counter changes.
        """
        ns = self.params.per_page_fixed_ns + self.params.copy_ns(nbytes)
        return self._charge(ns, critical)

    # -- demotion cascade --------------------------------------------------

    def _ensure_room(self, dst: int, nbytes: int, critical: bool) -> float:
        """Make ``nbytes`` of room on tier ``dst`` by cascading downward.

        No-op when ``dst`` already fits the move or is the terminal tier
        (the terminal tier keeps strict OOM semantics, as on two-tier
        machines).  Victims are the tier's mapped pages in ascending vpn
        order -- deterministic, so runs stay reproducible -- and are
        pushed to the next-slower tier, which may itself cascade.

        The cascade itself never raises: room is made down-hierarchy
        *before* the victims move, and the victim set is clamped to what
        the next tier can actually absorb.  When the hierarchy below is
        full the cascade stops having moved only what fits, leaving the
        caller's own allocation to raise the usual
        :class:`~repro.mem.tiers.OutOfMemoryError` -- a mid-batch OOM
        from inside the cascade would desync ``cascade_pages`` from the
        pages actually moved.
        """
        space = self.space
        tiers = space.tiers
        dst = int(dst)
        next_idx = tiers.demote_target(dst)
        if next_idx is None:
            return 0.0
        need = nbytes - tiers.tier(dst).free_bytes
        if need <= 0:
            return 0.0
        on_dst = np.flatnonzero(space.page_tier == dst)
        huge_mask = space.page_huge[on_dst]
        huge_heads = np.unique((on_dst[huge_mask] >> 9) << 9)
        base_vpns = on_dst[~huge_mask]
        heads = np.concatenate([huge_heads, base_vpns])
        sizes = np.concatenate([
            np.full(len(huge_heads), HUGE_PAGE_SIZE, dtype=np.int64),
            np.full(len(base_vpns), BASE_PAGE_SIZE, dtype=np.int64),
        ])
        order = np.argsort(heads, kind="stable")
        heads, sizes = heads[order], sizes[order]
        cum = np.cumsum(sizes)
        n_victims = int(np.searchsorted(cum, need) + 1)
        if n_victims > len(heads):
            # Even evicting the whole tier cannot make room; let the
            # caller's allocation raise the usual OutOfMemoryError.
            return 0.0
        freed = int(cum[n_victims - 1])
        # Make room for the victims one tier down first (recursing until
        # the terminal tier, so depth is bounded by the machine's tier
        # count), then clamp to the room that actually materialised: a
        # full slowest tier absorbs nothing and the cascade degrades to
        # a partial (possibly empty) spill instead of raising mid-move.
        ns = self._ensure_room(next_idx, freed, critical)
        accept = tiers.tier(next_idx).free_bytes
        if freed > accept:
            n_victims = int(np.searchsorted(cum, accept, side="right"))
            if n_victims == 0:
                return ns
            freed = int(cum[n_victims - 1])
        victims = heads[:n_victims]
        ns += self.migrate_many(victims, next_idx, critical)
        self.stats.cascade_pages += n_victims
        self.stats.cascade_bytes += freed
        if self.tracer.enabled:
            self.tracer.emit(
                "migrate", "cascade",
                dst_tier=dst, spill_tier=int(next_idx),
                pages=n_victims, bytes=freed,
            )
        return ns

    # -- single-page moves ---------------------------------------------------

    def migrate_base(self, vpn: int, dst: int, critical: bool = False,
                     copy_free: bool = False) -> float:
        """Move one 4 KiB page to ``dst``; returns ns spent.

        ``copy_free`` remaps without paying (or accounting) the copy: a
        valid replica already exists at ``dst`` -- Nomad's clean-shadow
        demotion -- so only the remap fixed cost and shootdown remain.
        """
        src = int(self.space.page_tier[vpn])
        if src == int(dst):
            return 0.0
        ns_cascade = self._ensure_room(dst, BASE_PAGE_SIZE, critical) if src >= 0 else 0.0
        moved = self.space.retarget(vpn, is_huge=False, dst=dst)
        if moved == 0:
            return ns_cascade
        if self.tlb is not None:
            self.tlb.shootdown_base(vpn)
        ns = (
            self.params.per_page_fixed_ns
            + (0.0 if copy_free else self.params.copy_ns(BASE_PAGE_SIZE))
            + self.params.shootdown_ns
        )
        self._account_move(0 if copy_free else BASE_PAGE_SIZE, src, int(dst))
        return ns_cascade + self._charge(ns, critical)

    def migrate_huge(self, hpn: int, dst: int, critical: bool = False,
                     copy_free: bool = False) -> float:
        """Move one 2 MiB page to ``dst``; returns ns spent."""
        base = hpn_to_vpn(hpn)
        src = int(self.space.page_tier[base])
        if src == int(dst):
            return 0.0
        ns_cascade = self._ensure_room(dst, HUGE_PAGE_SIZE, critical) if src >= 0 else 0.0
        moved = self.space.retarget(base, is_huge=True, dst=dst)
        if moved == 0:
            return ns_cascade
        if self.tlb is not None:
            self.tlb.shootdown_huge(hpn)
        ns = (
            self.params.per_page_fixed_ns
            + (0.0 if copy_free else self.params.copy_ns(HUGE_PAGE_SIZE))
            + self.params.shootdown_ns
        )
        self._account_move(0 if copy_free else HUGE_PAGE_SIZE, src, int(dst))
        return ns_cascade + self._charge(ns, critical)

    def migrate_page(self, vpn: int, dst: int, critical: bool = False,
                     copy_free: bool = False) -> float:
        """Move whichever mapping covers ``vpn`` (dispatch on shape)."""
        if self.space.page_huge[vpn]:
            return self.migrate_huge(vpn >> 9, dst, critical, copy_free)
        return self.migrate_base(vpn, dst, critical, copy_free)

    # -- huge page split / collapse -------------------------------------------

    def split_huge(
        self,
        hpn: int,
        subpage_tiers: Sequence[Optional[int]],
        critical: bool = False,
    ) -> float:
        """Split ``hpn``; place/free each subpage per ``subpage_tiers``.

        The split itself costs page-table surgery plus a shootdown of the
        2 MiB entry; subpages that change tier additionally pay copy cost.
        Freed subpages (None entries) reclaim bloat at no copy cost.
        Subpages landing on a different tier than the source may first
        cascade that tier's coldest pages downward to make room.
        """
        src = int(self.space.page_tier[hpn_to_vpn(hpn)])
        ns_cascade = 0.0
        if src >= 0:
            incoming: dict = {}
            for t in subpage_tiers:
                if t is None:
                    continue
                t = int(t)
                if t != src:
                    incoming[t] = incoming.get(t, 0) + BASE_PAGE_SIZE
            for t in sorted(incoming):
                ns_cascade += self._ensure_room(t, incoming[t], critical)
        result = self.space.split_huge(hpn, subpage_tiers)
        if self.tlb is not None:
            self.tlb.shootdown_huge(hpn)
        ns = (
            self.params.split_fixed_ns
            + self.params.shootdown_ns
            + self.params.copy_ns(result["bytes_migrated"])
            + result["bytes_migrated"] // BASE_PAGE_SIZE * self.params.per_page_fixed_ns
        )
        self.stats.splits += 1
        self.stats.split_freed_bytes += result["bytes_freed"]
        self.stats.split_migrated_bytes += result["bytes_migrated"]
        return ns_cascade + self._charge(ns, critical)

    def collapse_huge(self, hpn: int, dst: int, critical: bool = False) -> float:
        """Coalesce 512 base pages into a huge page on ``dst``.

        Only the subpages not already resident on ``dst`` need new
        frames there; the demotion cascade makes room for that net
        inflow when ``dst`` is an intermediate tier.
        """
        dst = int(dst)
        head = hpn_to_vpn(hpn)
        resident = int(np.count_nonzero(
            self.space.page_tier[head : head + SUBPAGES_PER_HUGE] == dst
        )) * BASE_PAGE_SIZE
        ns_cascade = self._ensure_room(dst, HUGE_PAGE_SIZE - resident, critical)
        moved = self.space.collapse_huge(hpn, dst)
        if self.tlb is not None:
            base = hpn_to_vpn(hpn)
            self.tlb.shootdown_base_many(
                np.arange(base, base + SUBPAGES_PER_HUGE, dtype=np.int64)
            )
        ns = (
            self.params.collapse_fixed_ns
            + self.params.shootdown_ns
            + self.params.copy_ns(moved)
        )
        self.stats.collapses += 1
        return ns_cascade + self._charge(ns, critical)

    # -- bulk helper used by background daemons --------------------------------

    def migrate_many(
        self, vpns: np.ndarray, dst: int, critical: bool = False
    ) -> float:
        """Migrate a batch of page vpns to ``dst``; returns total ns.

        Vectorized equivalent of dispatching :meth:`migrate_page` per
        vpn: subpage vpns dedupe onto their huge-page head, pages
        already on ``dst`` are no-ops, and per-page fixed/copy/shootdown
        costs and stats accrue for every page actually moved.  When
        ``dst`` is a full intermediate tier, room is made first by a
        demotion cascade (see :meth:`_ensure_room`).
        """
        vpns = np.asarray(vpns, dtype=np.int64)
        if len(vpns) == 0:
            return 0.0
        space = self.space
        dst = int(dst)
        if np.any(space.page_tier[vpns] < 0):
            bad = int(vpns[space.page_tier[vpns] < 0][0])
            raise KeyError(f"vpn {bad} mapping shape mismatch")
        huge = space.page_huge[vpns]
        base_reps = np.unique(vpns[~huge])
        huge_heads = np.unique((vpns[huge] >> 9) << 9)
        moving_base = base_reps[space.page_tier[base_reps] != dst]
        moving_heads = huge_heads[space.page_tier[huge_heads] != dst]

        incoming = (
            len(moving_base) * BASE_PAGE_SIZE + len(moving_heads) * HUGE_PAGE_SIZE
        )
        ns_cascade = 0.0
        if incoming:
            ns_cascade = self._ensure_room(dst, incoming, critical)

        ns = 0.0
        if len(moving_base):
            srcs = space.page_tier[moving_base]
            n = space.retarget_many(moving_base, is_huge=False, dst=dst)
            if self.tlb is not None:
                self.tlb.shootdown_base_many(moving_base)
            per_page = (
                self.params.per_page_fixed_ns
                + self.params.copy_ns(BASE_PAGE_SIZE)
                + self.params.shootdown_ns
            )
            ns += n * per_page
            self._account_move_many(srcs, BASE_PAGE_SIZE, dst)
        if len(moving_heads):
            srcs = space.page_tier[moving_heads]
            n = space.retarget_many(moving_heads, is_huge=True, dst=dst)
            if self.tlb is not None:
                self.tlb.shootdown_huge_many(moving_heads >> 9)
            per_page = (
                self.params.per_page_fixed_ns
                + self.params.copy_ns(HUGE_PAGE_SIZE)
                + self.params.shootdown_ns
            )
            ns += n * per_page
            self._account_move_many(srcs, HUGE_PAGE_SIZE, dst)
        if ns == 0.0:
            return ns_cascade
        return ns_cascade + self._charge(ns, critical)

    def _account_move_many(self, srcs: np.ndarray, nbytes_each: int, dst: int) -> None:
        promoted = int(np.count_nonzero(srcs > dst))
        demoted = len(srcs) - promoted
        self.stats.promoted_bytes += promoted * nbytes_each
        self.stats.promoted_pages += promoted
        self.stats.demoted_bytes += demoted * nbytes_each
        self.stats.demoted_pages += demoted
