"""Nomad: non-exclusive tiering with transactional migration (OSDI'24,
arXiv:2401.13154).

Two ideas from the paper:

1. **Transactional page migration (TPM).**  Promotion copies the page
   while the application keeps writing to the *old* mapping; the
   transaction commits only if no write raced the copy, otherwise it
   aborts and the copy is discarded.  Migration never blocks the app,
   but an abort pays bus time for nothing.
2. **Non-exclusive tiering (page shadowing).**  After a committed
   promotion the slow-tier frame is kept as a clean **shadow** instead
   of being freed.  While the fast copy stays clean, demoting the page
   back is a pure remap -- no copy traffic.  A write to the promoted
   page invalidates its shadow.

The model tracks shadows in policy state: shadow frames occupy
slow-tier bytes that the address space does not know about, so the
policy enforces the invariant ``shadow_bytes <= slow.free_bytes`` and
reclaims the oldest shadows first under pressure (the paper's
watermark-based shadow reclamation).

Preserved defect (the paper's own §6.4 "performance caveat"): the
duplicate residency is a **capacity tax**.  At tight fast:slow ratios
the slow tier has no spare frames, shadows are reclaimed as fast as
they are made, and Nomad degenerates to exclusive tiering while still
paying for aborted transactional copies -- visible here through the
``shadow_reclaims`` / ``aborts`` / ``aborted_copy_bytes`` stats and a
shadow hit rate that collapses under memory pressure.
"""

from __future__ import annotations

from typing import Dict, Set

import numpy as np

from repro.mem.tiers import FASTEST_TIER
from repro.pebs.sampler import SamplerConfig
from repro.policies.base import BatchObservation, PolicyContext, TieringPolicy, Traits


class NomadPolicy(TieringPolicy):
    """Transactional promotion with clean-shadow (non-exclusive) demotion."""

    name = "nomad"
    uses_pebs = True
    traits = Traits(
        mechanism="HW-based sampling",
        subpage_tracking=False,
        promotion_metric="recency + frequency (transactional)",
        demotion_metric="shadow-first LRU",
        threshold_criteria="static access count",
        critical_path_migration="none",
        page_size_handling="none",
    )

    def __init__(
        self,
        hot_threshold: int = 4,
        cooling_threshold: int = 32,
        migrate_period_ns: float = 100e6,
        free_headroom: float = 0.02,
    ):
        super().__init__()
        self.hot_threshold = hot_threshold
        self.cooling_threshold = cooling_threshold
        self.migrate_period_ns = migrate_period_ns
        self.free_headroom = free_headroom
        self._next_migrate_ns = 0.0
        self._count = None
        #: Fast-resident heads whose slow-tier frame is kept as a clean
        #: shadow; ``_shadow_stamp`` orders them for oldest-first reclaim.
        self._shadow = None
        self._shadow_stamp = None
        self._shadow_nbytes = None
        self._stamp = 0
        self._shadow_bytes = 0
        #: Heads written since their promotion transaction opened (or
        #: since their shadow was made): a set bit aborts the one and
        #: invalidates the other.
        self._dirty = None
        self._pending: Set[int] = set()
        self.commits = 0
        self.aborts = 0
        self.aborted_copy_bytes = 0
        self.shadow_reclaims = 0
        self.shadow_invalidations = 0
        self.copy_free_demotions = 0
        self.copied_demotions = 0
        self.coolings = 0

    def sampler_config(self) -> SamplerConfig:
        return SamplerConfig(load_period=200, store_period=2_000)

    def bind(self, ctx: PolicyContext) -> None:
        super().bind(ctx)
        n = ctx.space.num_vpns
        self._count = np.zeros(n, dtype=np.int32)
        self._shadow = np.zeros(n, dtype=bool)
        self._shadow_stamp = np.zeros(n, dtype=np.int64)
        # Size is recorded at shadow creation: by unmap-listener time the
        # address space has already cleared ``page_huge``, so the live
        # mapping shape cannot be consulted when a shadow is dropped.
        self._shadow_nbytes = np.zeros(n, dtype=np.int64)
        self._dirty = np.zeros(n, dtype=bool)

    # -- helpers ---------------------------------------------------------------

    def _drop_shadow(self, vpn: int) -> None:
        self._shadow[vpn] = False
        self._shadow_bytes -= int(self._shadow_nbytes[vpn])
        self._shadow_nbytes[vpn] = 0

    def _reclaim_shadows(self, nbytes_needed: int) -> None:
        """Free the oldest shadows until ``nbytes_needed`` materialise."""
        if self._shadow_bytes == 0:
            return
        shadowed = np.flatnonzero(self._shadow)
        order = np.argsort(self._shadow_stamp[shadowed], kind="stable")
        freed = 0
        for vpn in shadowed[order].tolist():
            if freed >= nbytes_needed:
                break
            nbytes = self.ctx.space.mapping_bytes(vpn)
            self._drop_shadow(vpn)
            self.shadow_reclaims += 1
            freed += nbytes

    def _shadow_pressure(self) -> None:
        """Restore ``shadow_bytes <= slow.free_bytes``.

        Real mappings landing on the slow tier shrink its free space
        under the shadows' feet; the fiction stays consistent by
        reclaiming shadows until they fit in the actually-free frames.
        This is the capacity-tax defect doing its work: at tight ratios
        this fires every tick and the shadow set never survives.
        """
        slow = self.ctx.tiers.tier(self.demote_target())
        if self._shadow_bytes > slow.free_bytes:
            self._reclaim_shadows(self._shadow_bytes - slow.free_bytes)

    # -- sample processing -----------------------------------------------------

    def on_batch(self, obs: BatchObservation) -> float:
        samples = obs.samples
        if samples is None or len(samples) == 0:
            return 0.0
        space = self.ctx.space
        heads = space.mapping_heads(samples.vpn)
        np.add.at(self._count, heads, 1)
        # Sampled stores dirty the page: open transactions on it will
        # abort, and a clean shadow of it is stale.
        store_heads = np.unique(heads[samples.is_store])
        if len(store_heads):
            self._dirty[store_heads] = True
            stale = store_heads[self._shadow[store_heads]]
            for vpn in stale.tolist():
                self._drop_shadow(int(vpn))
                self.shadow_invalidations += 1
        hot = heads[self._count[heads] >= self.hot_threshold]
        for vpn in np.unique(hot).tolist():
            vpn = int(vpn)
            if space.page_tier[vpn] > FASTEST_TIER and vpn not in self._pending:
                # Opening the transaction starts the racy copy window:
                # writes from here to the commit attempt abort it.
                self._pending.add(vpn)
                self._dirty[vpn] = False
        if len(heads) and int(self._count[heads].max()) >= self.cooling_threshold:
            self._count >>= 1
            self.coolings += 1
        return 0.0

    # -- background migration --------------------------------------------------

    def on_tick(self, now_ns: float) -> None:
        if now_ns < self._next_migrate_ns:
            return
        self._next_migrate_ns = now_ns + self.migrate_period_ns
        space = self.ctx.space
        tiers = self.ctx.tiers
        self._shadow_pressure()

        for vpn in sorted(self._pending):
            if space.page_tier[vpn] <= FASTEST_TIER:
                continue
            nbytes = space.mapping_bytes(vpn)
            if self._dirty[vpn]:
                # Abort: the copy happened, a concurrent write won the
                # race, the transaction rolls back.  Bus time is spent;
                # nothing moves.
                self.ctx.migrator.charge_side_copy(nbytes, critical=False)
                self.aborts += 1
                self.aborted_copy_bytes += nbytes
                continue
            if not self.promote_with_room(vpn, self._demote_cold):
                break
            self.commits += 1
            # Non-exclusive tiering: keep the slow frame as a clean
            # shadow if the slow tier still has the spare capacity.
            slow = tiers.tier(self.demote_target())
            if self._shadow_bytes + nbytes <= slow.free_bytes:
                self._shadow[vpn] = True
                self._stamp += 1
                self._shadow_stamp[vpn] = self._stamp
                self._shadow_nbytes[vpn] = nbytes
                self._shadow_bytes += nbytes
                self._dirty[vpn] = False
            else:
                self.shadow_reclaims += 1
        self._pending.clear()

        deficit = self.headroom_deficit(self.free_headroom)
        if deficit:
            self._demote_cold(deficit)
        self._shadow_pressure()

    def _demote_cold(self, nbytes_needed: int) -> None:
        """Demote coldest fast pages, shadow-remap-first.

        A page with a live clean shadow demotes by dropping the fast
        copy and re-adopting the shadow frame: no copy traffic.  The
        shadow's bytes convert back into a real mapping, so shadow
        accounting shrinks by the same amount the tier allocation grows.
        """
        space = self.ctx.space
        heads = self.fast_heads()
        order = np.argsort(self._count[heads], kind="stable")
        dst = self.demote_target()
        freed = 0
        # Own loop: each victim picks a copy-free remap or a copy.
        for vpn in heads[order].tolist():
            if freed >= nbytes_needed:
                break
            if space.page_tier[vpn] != FASTEST_TIER:
                continue
            nbytes = space.mapping_bytes(vpn)
            if self._shadow[vpn] and not self._dirty[vpn]:
                # The shadow frame becomes the real mapping again; free
                # its fictive bytes first so the engine's allocation
                # lands on the frames the shadow was holding.
                self._drop_shadow(vpn)
                self.ctx.migrator.migrate_page(vpn, dst, critical=False,
                                               copy_free=True)
                self.copy_free_demotions += 1
            else:
                if self._shadow[vpn]:
                    self._drop_shadow(vpn)
                    self.shadow_invalidations += 1
                self.ctx.migrator.migrate_page(vpn, dst, critical=False)
                self.copied_demotions += 1
            freed += nbytes

    # -- bookkeeping -----------------------------------------------------------

    def on_unmap(self, base_vpn: int, num_vpns: int) -> None:
        if self._count is None:
            return
        lo, hi = base_vpn, base_vpn + num_vpns
        gone = np.flatnonzero(self._shadow[lo:hi]) + lo
        for vpn in gone.tolist():
            self._drop_shadow(int(vpn))
        self._count[lo:hi] = 0
        self._dirty[lo:hi] = False
        self._shadow_stamp[lo:hi] = 0
        self._pending = {v for v in self._pending if not lo <= v < hi}

    def stats(self) -> Dict[str, float]:
        return {
            "commits": float(self.commits),
            "aborts": float(self.aborts),
            "aborted_copy_bytes": float(self.aborted_copy_bytes),
            "shadow_bytes": float(self._shadow_bytes),
            "shadow_reclaims": float(self.shadow_reclaims),
            "shadow_invalidations": float(self.shadow_invalidations),
            "copy_free_demotions": float(self.copy_free_demotions),
            "copied_demotions": float(self.copied_demotions),
            "coolings": float(self.coolings),
        }
