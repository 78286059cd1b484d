"""MULTI-CLOCK (HPCA'22) baseline.

Table 1 row: page-table scanning, recency+frequency promotion (extended
CLOCK: referenced in two consecutive scans), recency demotion, static
access-count threshold (two), migrations off the critical path.

Mechanism: two CLOCK lists (one per tier).  Each scan harvests and
clears reference bits; a capacity-tier page referenced in two
consecutive scans is promoted, and fast-tier pages whose hands find the
reference bit clear are demoted under memory pressure.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.mem.tiers import FASTEST_TIER
from repro.policies.base import PolicyContext, TieringPolicy, Traits


class MultiClockPolicy(TieringPolicy):
    """Per-tier CLOCK lists; promote on two consecutive referenced scans."""

    name = "multi-clock"
    traits = Traits(
        mechanism="PT scanning",
        subpage_tracking=False,
        promotion_metric="recency + frequency",
        demotion_metric="recency",
        threshold_criteria="static access count",
        critical_path_migration="none",
        page_size_handling="none",
    )

    PROMOTION_STREAK = 2

    def __init__(
        self,
        scan_period_ns: float = 120e6,
        scan_ns_per_page: float = 12.0,
        free_watermark: float = 0.02,
    ):
        super().__init__()
        self.scan_period_ns = scan_period_ns
        self.scan_ns_per_page = scan_ns_per_page
        self.free_watermark = free_watermark
        self._next_scan_ns = 0.0
        self._streak = None  # consecutive referenced scans per vpn
        self._scan_cpu_ns = 0.0
        self.promotions = 0
        self.demotions = 0

    def bind(self, ctx: PolicyContext) -> None:
        super().bind(ctx)
        self._streak = np.zeros(ctx.space.num_vpns, dtype=np.uint8)

    def on_tick(self, now_ns: float) -> None:
        if now_ns < self._next_scan_ns:
            return
        self._next_scan_ns = now_ns + self.scan_period_ns
        space = self.ctx.space
        mapped = space.page_tier >= 0
        self._scan_cpu_ns += int(np.count_nonzero(mapped)) * self.scan_ns_per_page

        referenced = space.ref_bit & mapped
        self._streak[referenced] = np.minimum(self._streak[referenced] + 1, 8)
        self._streak[mapped & ~referenced] = 0

        # Promotion: streak >= 2 on the capacity tier.
        hot = np.flatnonzero(
            (self._streak >= self.PROMOTION_STREAK)
            & (space.page_tier > FASTEST_TIER)
        )
        for vpn in np.unique(space.mapping_heads(hot)).tolist():
            if not self.promote_with_room(vpn, self._demote_for_space):
                break
            self.promotions += 1
        deficit = self.headroom_deficit(self.free_watermark)
        if deficit:
            self._demote_for_space(deficit)
        space.ref_bit[mapped] = False

    def _demote_for_space(self, nbytes_needed: int) -> None:
        # Victims: fast pages whose CLOCK hand found them unreferenced.
        cold = self.fast_heads(self._streak == 0)
        self.demotions += self.demote_in_order(cold, nbytes_needed)

    def on_batch(self, obs) -> float:
        ns, self._scan_cpu_ns = self._scan_cpu_ns, 0.0
        return ns / max(1, self.ctx.machine.cores)

    def on_unmap(self, base_vpn: int, num_vpns: int) -> None:
        if self._streak is not None:
            self._streak[base_vpn : base_vpn + num_vpns] = 0

    def stats(self) -> Dict[str, float]:
        return {
            "promotions": float(self.promotions),
            "demotions": float(self.demotions),
        }
