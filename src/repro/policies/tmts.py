"""TMTS-style policy (ASPLOS'23, Google) -- the paper's §8 discussion.

Table 1 row: PT scanning + HW-based sampling, recency+frequency
promotion, recency demotion, static count for promotion with an
*adaptive demotion age threshold*, no critical-path migration, and
"split upon demotion" (every demoted huge page is splintered, with no
skew consideration -- contrast §4.3).

Design intent (§8): TMTS replaces a *fraction* of DRAM with slower
memory while protecting application SLOs.  It targets a secondary-tier
residency ratio (STRR ~25%) by adapting the demotion *age* threshold
over a cold-age histogram, and promotes pages cheaply (one PEBS sample
or two scan hits).  The paper argues this breaks down when the hot set
exceeds DRAM (1:8/1:16 configs) -- which this implementation lets you
measure directly.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.mem.pages import SUBPAGES_PER_HUGE
from repro.mem.tiers import FASTEST_TIER
from repro.pebs.sampler import SamplerConfig
from repro.policies.base import BatchObservation, PolicyContext, TieringPolicy, Traits


class TMTSPolicy(TieringPolicy):
    """Adaptive-cold-age demotion, sample-once promotion, split-on-demote."""

    name = "tmts"
    uses_pebs = True
    traits = Traits(
        mechanism="PT scanning & HW-based sampling",
        subpage_tracking=False,
        promotion_metric="recency + frequency",
        demotion_metric="recency",
        threshold_criteria="static count (promo) / period never accessed (demo)",
        critical_path_migration="none",
        page_size_handling="split upon demotion",
    )

    def __init__(
        self,
        target_strr: float = 0.25,
        scan_period_ns: float = 20e6,
        migrate_period_ns: float = 2e6,
        age_bins: int = 16,
    ):
        super().__init__()
        self.target_strr = target_strr
        self.scan_period_ns = scan_period_ns
        self.migrate_period_ns = migrate_period_ns
        self.age_bins = age_bins
        self._next_scan_ns = 0.0
        self._next_migrate_ns = 0.0
        self._idle_age = None  # scans since last reference, per vpn
        self._promote = set()
        self.demotion_age_threshold = 2
        self.promotions = 0
        self.demotions = 0
        self.splits_on_demotion = 0

    def sampler_config(self) -> SamplerConfig:
        return SamplerConfig(load_period=200, store_period=100_000)

    def bind(self, ctx: PolicyContext) -> None:
        super().bind(ctx)
        self._idle_age = np.zeros(ctx.space.num_vpns, dtype=np.int16)

    # -- promotion: one PEBS sample is enough ------------------------------------

    def on_batch(self, obs: BatchObservation) -> float:
        if obs.samples is None or not len(obs.samples):
            return 0.0
        space = self.ctx.space
        heads = space.mapping_heads(obs.samples.vpn)
        on_capacity = heads[space.page_tier[heads] > FASTEST_TIER]
        self._promote.update(int(v) for v in np.unique(on_capacity))
        return 0.0

    # -- scanning: cold-age histogram + adaptive threshold --------------------------

    def on_tick(self, now_ns: float) -> None:
        if now_ns >= self._next_scan_ns:
            self._next_scan_ns = now_ns + self.scan_period_ns
            self._scan()
        if now_ns >= self._next_migrate_ns:
            self._next_migrate_ns = now_ns + self.migrate_period_ns
            self._migrate()

    def _scan(self) -> None:
        """Harvest reference bits into idle ages; adapt the demotion age."""
        space = self.ctx.space
        mapped = space.page_tier >= 0
        referenced = space.ref_bit & mapped
        self._idle_age[referenced] = 0
        idle = mapped & ~referenced
        self._idle_age[idle] = np.minimum(
            self._idle_age[idle] + 1, self.age_bins - 1
        )
        space.ref_bit[mapped] = False

        # Cold-age histogram (kstaled-style): pick the smallest age whose
        # tail (pages at least that idle) matches the STRR target.
        mapped_ages = self._idle_age[np.flatnonzero(mapped)]
        total = len(mapped_ages)
        if total == 0:
            return
        counts = np.bincount(mapped_ages, minlength=self.age_bins)
        target_pages = int(total * self.target_strr)
        tail = 0
        threshold = self.age_bins - 1
        for age in range(self.age_bins - 1, 0, -1):
            tail += int(counts[age])
            if tail >= target_pages:
                threshold = age
                break
        self.demotion_age_threshold = max(1, threshold)

    # -- migration --------------------------------------------------------------------

    def _migrate(self) -> None:
        space = self.ctx.space
        tiers = self.ctx.tiers
        migrator = self.ctx.migrator

        # Demote pages idle beyond the adaptive age (split huge first).
        # Own loop: a split frees only the touched subpages' bytes, so
        # the stop test reads the tier's free bytes live.
        heads = self.fast_heads()
        old = heads[self._idle_age[heads] >= self.demotion_age_threshold]
        headroom = self.headroom_bytes(0.02)
        for vpn in old.tolist():
            if tiers.fast.free_bytes >= headroom:
                break
            if space.page_tier[vpn] != FASTEST_TIER:
                continue
            if space.page_huge[vpn]:
                # "All demoted huge pages ... undergo splitting upon
                # demotion" (§8) -- no skew consideration.
                hpn = vpn >> 9
                touched = space.touched[vpn : vpn + SUBPAGES_PER_HUGE]
                demote_to = self.demote_target()
                subpage_tiers = [
                    demote_to if touched[j] else None
                    for j in range(SUBPAGES_PER_HUGE)
                ]
                migrator.split_huge(hpn, subpage_tiers, critical=False)
                self.splits_on_demotion += 1
            else:
                migrator.migrate_base(vpn, self.demote_target(), critical=False)
            self.demotions += 1

        # Promote sampled pages while room remains.
        for vpn in sorted(self._promote):
            if space.page_tier[vpn] <= FASTEST_TIER:
                continue
            if not self.promote_with_room(vpn):
                break
            self.promotions += 1
        self._promote.clear()

    def on_unmap(self, base_vpn: int, num_vpns: int) -> None:
        if self._idle_age is not None:
            self._idle_age[base_vpn : base_vpn + num_vpns] = 0

    def stats(self) -> Dict[str, float]:
        return {
            "promotions": float(self.promotions),
            "demotions": float(self.demotions),
            "splits_on_demotion": float(self.splits_on_demotion),
            "demotion_age_threshold": float(self.demotion_age_threshold),
        }
