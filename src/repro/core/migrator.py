"""`kmigrated`: MEMTIS's background migration daemon (§4.2.3, §4.3.3).

One instance stands in for the paper's per-memory-node pair of kernel
threads.  Woken periodically, it:

* **promotes** queued hot pages from the capacity tier while the fast
  tier has free space;
* **demotes** when fast-tier free space falls below the 2% headroom:
  cold pages first, then -- only if pressure persists -- warm pages, so
  as many warm pages as possible stay in DRAM (the Fig. 10 ablation
  disables this protection);
* **splits** queued huge pages: each subpage is classified hot/cold by
  its subpage hotness against the base histogram's threshold, all-zero
  (never touched) subpages are freed outright, and the pieces are placed
  on their proper tiers;
* **collapses** previously split ranges back into a huge page when every
  constituent base page is hot (§4.3.3 -- rare by design).

Everything here runs off the critical path: migration nanoseconds are
charged to the background budget, never to the application.
"""

from __future__ import annotations

from typing import List, Set

import numpy as np

from repro.core.config import MemtisConfig
from repro.core.sampler import KSampled
from repro.core.split import (
    SplitDecision,
    choose_split_candidates,
    num_splits,
    split_benefit,
)
from repro.mem.pages import (
    BASE_PAGE_SIZE,
    HUGE_PAGE_SIZE,
    SUBPAGES_PER_HUGE,
    hpn_to_vpn,
    vpn_to_hpn,
)
from repro.mem.tiers import FASTEST_TIER
from repro.obs.tracer import DEBUG as TRACE_DEBUG
from repro.policies.base import PolicyContext, scaled_headroom


class KMigrated:
    """Background promotion/demotion/split/collapse."""

    #: Live wiring the checkpoint walk leaves out (``repro.snapshot``).
    _CHECKPOINT_EXCLUDE = frozenset({"ctx", "tracer", "counters"})

    MAX_SPLITS_PER_TICK = 64
    #: Oversized promotion candidates skipped per tick before giving up.
    #: Bounds the work wasted on huge pages that cannot fit (each skip
    #: may already have paid for a partial demotion pass) while still
    #: letting hotter-than-threshold base pages behind them promote.
    MAX_PROMOTE_SKIPS = 8

    def __init__(self, config: MemtisConfig, ctx: PolicyContext, ksampled: KSampled):
        self.config = config
        self.ctx = ctx
        self.ksampled = ksampled
        self._next_tick_ns = 0.0
        self.split_queue: List[int] = []
        self.split_hpns: Set[int] = set()
        # Run counters live in the shared observability registry; the
        # int attributes below are properties over these instruments.
        self.tracer = ctx.obs.tracer
        self.counters = ctx.obs.counters.scope("kmigrated")
        self._c_splits = self.counters.counter("splits")
        self._c_collapses = self.counters.counter("collapses")
        self._c_split_rounds = self.counters.counter("split_rounds")
        self._c_promoted = self.counters.counter("promoted_pages")
        self._c_demoted = self.counters.counter("demoted_pages")
        self._g_split_queue = self.counters.gauge("split_queue")
        self.splits_done = 0
        self.collapses_done = 0
        self.split_rounds_triggered = 0
        self._benefit_streak = 0
        #: Last benefit-estimation outcome, for introspection/debugging.
        self.last_decision: SplitDecision = SplitDecision(
            ehr=0.0, rhr=0.0, benefit=0.0, n_splits=0, candidates=[]
        )

    # -- registry-backed run counters (assignable for test harnesses) ------------

    @property
    def splits_done(self) -> int:
        return self._c_splits.value

    @splits_done.setter
    def splits_done(self, value: int) -> None:
        self._c_splits.value = value

    @property
    def collapses_done(self) -> int:
        return self._c_collapses.value

    @collapses_done.setter
    def collapses_done(self, value: int) -> None:
        self._c_collapses.value = value

    @property
    def split_rounds_triggered(self) -> int:
        return self._c_split_rounds.value

    @split_rounds_triggered.setter
    def split_rounds_triggered(self, value: int) -> None:
        self._c_split_rounds.value = value

    def _demote_dst(self) -> int:
        """Demotions from DRAM land one tier below; the migration
        engine's cascade handles deeper overflow on N-tier machines."""
        target = self.ctx.tiers.demote_target(FASTEST_TIER)
        return FASTEST_TIER if target is None else target

    # -- periodic wakeup ------------------------------------------------------------

    def tick(self, now_ns: float) -> None:
        if now_ns < self._next_tick_ns:
            return
        self._next_tick_ns = now_ns + self.config.kmigrated_period_ns
        self._process_split_queue()
        self._promote()
        self._demote_if_needed()
        if self.config.enable_collapse:
            self._maybe_collapse()
        self._set_split_queue_gauge()

    def _set_split_queue_gauge(self) -> None:
        self._g_split_queue.set(float(len(self.split_queue)))

    # -- promotion --------------------------------------------------------------------

    def _promote(self) -> None:
        """Move queued hot capacity-tier pages into free fast-tier space."""
        queue = self.ksampled.promotion_queue
        if not queue:
            return
        space = self.ctx.space
        tiers = self.ctx.tiers
        reps = np.fromiter(queue, dtype=np.int64)
        # Sort ascending first: set iteration order depends on insertion
        # history, which differs between the scalar and vectorized
        # sample-folding kernels; a deterministic tie-break keeps both
        # paths bit-identical.
        reps.sort()
        # Hottest first: promote the most valuable pages into what fits.
        order = np.argsort(-self.ksampled.main_bin[reps], kind="stable")
        migrator = self.ctx.migrator
        t_hot = self.ksampled.thresholds.hot
        promoted = 0
        promoted_bytes = 0
        skips = 0
        for rep in reps[order].tolist():
            if space.page_tier[rep] <= FASTEST_TIER:
                queue.discard(rep)
                continue
            rep_bin = int(self.ksampled.main_bin[rep])
            if rep_bin < t_hot:
                # Enqueued under a stale (lower) threshold; no longer hot.
                queue.discard(rep)
                continue
            nbytes = space.mapping_bytes(rep)
            if tiers.fast.avail_bytes < nbytes:
                # Make room by demoting *strictly colder* pages only --
                # "where there are no cold pages in the fast tier and
                # MEMTIS needs to secure free space ... it proceeds to
                # demote warm pages" (§4.2.1).  The strict ordering makes
                # every exchange raise the fast tier's total hotness, so
                # promotion converges instead of thrashing.
                self._demote(
                    nbytes - tiers.fast.avail_bytes,
                    allow_warm=True,
                    max_bin=rep_bin,
                )
                if tiers.fast.avail_bytes < nbytes:
                    # Skip the page that will not fit (typically a huge
                    # page with no colder 2 MiB worth of victims) rather
                    # than break: a hotter-than-threshold base page later
                    # in the order may still fit.  Left queued for the
                    # next tick.
                    skips += 1
                    if skips >= self.MAX_PROMOTE_SKIPS:
                        break
                    continue
            migrator.migrate_page(rep, FASTEST_TIER, critical=False)
            queue.discard(rep)
            promoted += 1
            promoted_bytes += nbytes
            if self.tracer.enabled_for("migrate", TRACE_DEBUG):
                self.tracer.emit(
                    "migrate", "promote", TRACE_DEBUG,
                    vpn=rep, bin=rep_bin, bytes=nbytes,
                )
        if promoted:
            self._c_promoted.inc(promoted)
            if self.tracer.enabled_for("migrate"):
                self.tracer.emit(
                    "migrate", "promote_batch",
                    pages=promoted, bytes=promoted_bytes,
                    queue_left=len(queue),
                )

    # -- demotion -------------------------------------------------------------------------

    def _fast_tier_reps(self) -> np.ndarray:
        space = self.ctx.space
        reps = np.flatnonzero(
            (self.ksampled.main_weight > 0)
            & (space.page_tier == FASTEST_TIER)
        )
        return reps

    def _demote_if_needed(self) -> None:
        """Restore the 2% free-space headroom (§4.2.3)."""
        tiers = self.ctx.tiers
        target = scaled_headroom(
            tiers.fast.capacity_bytes, self.config.free_space_fraction
        )
        if tiers.fast.free_bytes >= target:
            return
        self._demote(target - tiers.fast.free_bytes, allow_warm=True)

    def _demote(self, need: int, allow_warm: bool, max_bin: int = None) -> None:
        """Demote ``need`` bytes: cold pages first, warm only if allowed.

        ``max_bin`` restricts victims to pages strictly colder than that
        bin (used by promotion-driven demotion).  With the warm set
        disabled (Fig. 10's vanilla ablation) every non-hot page is fair
        game in address order -- near-hot pages get demoted and promptly
        promoted back, inflating migration traffic.
        """
        reps = self._fast_tier_reps()
        if len(reps) == 0:
            return
        bins = self.ksampled.main_bin[reps]
        if max_bin is not None:
            keep = bins < max_bin
            reps = reps[keep]
            bins = bins[keep]
            if len(reps) == 0:
                return
        t = self.ksampled.thresholds

        if self.config.enable_warm_set:
            cold_mask = bins < t.cold
            cold = reps[cold_mask]
            order_cold = np.argsort(bins[cold_mask], kind="stable")
            candidates = cold[order_cold]
            if allow_warm:
                warm_mask = (bins >= t.cold) & (bins < t.hot)
                warm = reps[warm_mask]
                order_warm = np.argsort(bins[warm_mask], kind="stable")
                candidates = np.concatenate([candidates, warm[order_warm]])
        else:
            candidates = reps[bins < t.hot]

        if len(candidates) == 0:
            return
        space = self.ctx.space
        # Own loop, not TieringPolicy.demote_in_order: the whole victim
        # prefix moves in one batched migrate_many call.
        # Candidates are unique fast-tier reps; the sequential loop took
        # victims in order until `need` was covered, i.e. the shortest
        # prefix whose cumulative size reaches `need` (or everything).
        nbytes = np.where(
            space.page_huge[candidates], HUGE_PAGE_SIZE, BASE_PAGE_SIZE
        )
        cum = np.cumsum(nbytes)
        k = min(int(np.searchsorted(cum, need, side="left")) + 1, len(candidates))
        self.ctx.migrator.migrate_many(
            candidates[:k], self._demote_dst(), critical=False
        )
        self._c_demoted.inc(k)
        if self.tracer.enabled_for("migrate"):
            self.tracer.emit(
                "migrate", "demote",
                pages=k, bytes=int(cum[k - 1]), need=int(need),
                allow_warm=allow_warm,
                max_bin=None if max_bin is None else int(max_bin),
            )

    # -- huge page split (§4.3) ---------------------------------------------------------------

    def consider_split(self, ehr: float, rhr: float) -> int:
        """One benefit-estimation round; returns huge pages enqueued."""
        if not self.config.enable_split:
            return 0
        # Long-term trends only (§3): no split decisions before the first
        # cooling pass has aged out the initial placement transient.
        if self.ksampled.coolings_requested < 1:
            return 0
        benefit = split_benefit(ehr, rhr)
        if benefit < self.config.min_split_benefit:
            self._benefit_streak = 0
            return 0
        # "MEMTIS makes the split decision after observing long-term page
        # access trends" (§3): require the benefit to persist across two
        # consecutive estimation windows, filtering transient gaps while
        # the placement is still converging.
        self._benefit_streak += 1
        if self._benefit_streak < 2:
            return 0
        space = self.ctx.space
        hpns = space.mapped_huge_hpns()
        if len(hpns) == 0:
            return 0
        counts = self.ksampled.meta.huge_count[hpns]
        accessed = hpns[counts > 0]
        if len(accessed) == 0:
            return 0
        avg_samples_hp = float(counts[counts > 0].mean())
        nr_samples = int(counts[counts > 0].sum())
        tiers = self.ctx.tiers
        n = num_splits(
            benefit=benefit,
            latency_fast_ns=tiers.fast.spec.load_latency_ns,
            latency_cap_ns=tiers.slowest.spec.load_latency_ns,
            nr_samples=nr_samples,
            avg_samples_hp=avg_samples_hp,
            beta=self.config.split_beta,
        )
        if n <= 0:
            return 0
        sub = self.ksampled.meta.sub_count
        heads = hpn_to_vpn(accessed)
        sub_counts = np.stack(
            [sub[h : h + SUBPAGES_PER_HUGE] for h in heads.tolist()]
        )
        threshold_hotness = max(1, self.ksampled.base_cut_hotness)
        picked = choose_split_candidates(
            accessed, sub_counts, threshold_hotness, n, comp=self.ksampled.comp
        )
        queued = [h for h in picked if h not in self.split_hpns]
        self.split_queue.extend(queued)
        self._set_split_queue_gauge()
        self.split_hpns.update(queued)
        self.last_decision = SplitDecision(
            ehr=ehr, rhr=rhr, benefit=benefit, n_splits=n, candidates=picked
        )
        if queued:
            self.split_rounds_triggered += 1
        if self.tracer.enabled_for("split"):
            self.tracer.emit(
                "split", "split_decision",
                queued=len(queued), **self.last_decision.to_dict(),
            )
        return len(queued)

    def _process_split_queue(self) -> None:
        space = self.ctx.space
        budget = self.MAX_SPLITS_PER_TICK
        while self.split_queue and budget > 0:
            hpn = self.split_queue.pop(0)
            head = hpn_to_vpn(hpn)
            if not space.page_huge[head]:
                # Raced with free/remap: drop the tracking entry too, or
                # the hpn stays in split_hpns forever and consider_split
                # can never re-queue that slot once it is huge again.
                self.split_hpns.discard(hpn)
                continue
            self._split_one(hpn)
            budget -= 1

    def _split_one(self, hpn: int) -> None:
        """Classify subpages, free zero pages, migrate the hot ones."""
        space = self.ctx.space
        tiers = self.ctx.tiers
        head = hpn_to_vpn(hpn)
        sub_hot = (
            self.ksampled.meta.sub_count[head : head + SUBPAGES_PER_HUGE]
            * self.ksampled.comp
            >= max(1, self.ksampled.base_cut_hotness)
        )
        touched = space.touched[head : head + SUBPAGES_PER_HUGE]
        headroom = scaled_headroom(
            tiers.fast.capacity_bytes, self.config.free_space_fraction
        )

        subpage_tiers = []
        fast_budget = tiers.fast.avail_bytes - headroom // 2
        src_fast = space.page_tier[head] == FASTEST_TIER
        demote_to = self._demote_dst()
        for j in range(SUBPAGES_PER_HUGE):
            if not touched[j]:
                subpage_tiers.append(None)  # all-zero: unmap and free
                continue
            if sub_hot[j]:
                if src_fast:
                    subpage_tiers.append(FASTEST_TIER)
                elif fast_budget >= BASE_PAGE_SIZE:
                    subpage_tiers.append(FASTEST_TIER)
                    fast_budget -= BASE_PAGE_SIZE
                else:
                    subpage_tiers.append(demote_to)
            else:
                subpage_tiers.append(demote_to)
        kept_mask = np.array([t is not None for t in subpage_tiers], dtype=bool)
        self.ctx.migrator.split_huge(hpn, subpage_tiers, critical=False)
        self.ksampled.on_split(hpn, kept_mask)
        self.splits_done += 1
        if self.tracer.enabled_for("split"):
            n_fast = sum(1 for t in subpage_tiers if t == FASTEST_TIER)
            n_cap = sum(
                1 for t in subpage_tiers
                if t is not None and t != FASTEST_TIER
            )
            self.tracer.emit(
                "split", "split",
                hpn=hpn, hot_subpages=int(sub_hot.sum()),
                to_fast=n_fast, to_capacity=n_cap,
                freed=SUBPAGES_PER_HUGE - int(kept_mask.sum()),
            )

    # -- coalescing (§4.3.3, conservative) ---------------------------------------------------

    def _maybe_collapse(self) -> None:
        """Coalesce a split range back when *all* subpages are hot.

        The three skip tests (huge again, a freed subpage, a cold
        subpage) run for every split range at once, on one ``(k, 512)``
        gather; only the survivors loop, in ``split_hpns`` order, and
        each checks the fast tier's room in turn.  Collapsing one range
        changes no other range's tiers, huge flags or counters (the room
        check keeps the migration engine from cascading), so this equals
        checking and collapsing one range at a time
        (``tests/test_memtis_migrator.py`` compares the two).
        """
        if not self.split_hpns:
            return
        space = self.ctx.space
        threshold_hotness = max(1, self.ksampled.base_cut_hotness)
        hpns = np.fromiter(self.split_hpns, dtype=np.int64,
                           count=len(self.split_hpns))
        heads = hpn_to_vpn(hpns)
        huge = space.page_huge[heads]
        if huge.any():  # already huge again
            self.split_hpns.difference_update(hpns[huge].tolist())
            hpns, heads = hpns[~huge], heads[~huge]
        index = heads[:, None] + np.arange(SUBPAGES_PER_HUGE)
        tiers = space.page_tier[index]
        hotness = self.ksampled.meta.sub_count[index] * self.ksampled.comp
        # Freed subpages cannot coalesce; every subpage must be hot.
        ok = ((tiers.min(axis=1) >= 0)
              & (hotness.min(axis=1) >= threshold_hotness))
        for hpn, row in zip(hpns[ok].tolist(), tiers[ok]):
            self._collapse_if_room(hpn, row)

    def _collapse_if_room(self, hpn: int, tiers: np.ndarray) -> None:
        """Collapse split range ``hpn`` (its subpages on ``tiers``) when
        the fast tier has room for it."""
        # Collapse frees the subpages before re-mapping the 2 MiB range
        # (unmap-then-map, like khugepaged), so bytes already resident
        # on the fast tier come back mid-operation; only the
        # *difference* needs to be free.  Demanding the full 2 MiB
        # would wrongly block collapse near capacity -- the common case,
        # since all-hot ranges live mostly in DRAM.
        resident_fast = int(
            np.count_nonzero(tiers == FASTEST_TIER)
        ) * BASE_PAGE_SIZE
        if not self.ctx.tiers.fast.can_alloc(HUGE_PAGE_SIZE - resident_fast):
            return
        self.ctx.migrator.collapse_huge(hpn, FASTEST_TIER, critical=False)
        self.ksampled.on_collapse(hpn)
        self.split_hpns.discard(hpn)
        self.collapses_done += 1
        if self.tracer.enabled_for("split"):
            self.tracer.emit("split", "collapse", hpn=hpn)

    def on_unmap(self, base_vpn: int, num_vpns: int) -> None:
        """Drop split bookkeeping for a freed range.

        Without this, an hpn split inside a region that is later freed
        survives in ``split_hpns``; when the slot is recycled as a fresh
        huge mapping, ``_maybe_collapse`` could coalesce it spuriously
        and ``consider_split`` would refuse to ever split it again.
        """
        lo = vpn_to_hpn(base_vpn)
        hi = vpn_to_hpn(base_vpn + num_vpns + SUBPAGES_PER_HUGE - 1)
        if self.split_queue:
            self.split_queue = [
                h for h in self.split_queue if not lo <= h < hi
            ]
            self._set_split_queue_gauge()
        if self.split_hpns:
            self.split_hpns = {
                h for h in self.split_hpns if not lo <= h < hi
            }
