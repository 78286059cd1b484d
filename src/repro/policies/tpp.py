"""TPP -- Transparent Page Placement (ASPLOS'23, Meta) baseline.

Table 1 row: page-fault tracking, recency+frequency promotion (2Q LRU
extension: promote on the second access), recency demotion, static
access-count threshold (two), promotion on the critical path.

Mechanism: allocations target the fast tier while a demotion daemon
keeps free headroom there (Meta's production design for the 2:1
configuration, §6.2.8); capacity-tier pages are tracked with hint
faults and promoted -- in the fault handler -- once they fault twice.
The known weakness the paper exploits (§6.2.3): the coarse 2Q
classification identifies *more* hot pages than DRAM can hold in small
fast-tier configurations, so TPP keeps shuttling pages between tiers
instead of pinning the truly hottest set.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.mem.tiers import FASTEST_TIER
from repro.policies.base import PolicyContext, TieringPolicy, Traits


class TPPPolicy(TieringPolicy):
    """Fast-tier-first allocation, promote-on-second-fault, LRU demotion."""

    name = "tpp"
    traits = Traits(
        mechanism="page fault",
        subpage_tracking=False,
        promotion_metric="recency + frequency",
        demotion_metric="recency",
        threshold_criteria="static access count",
        critical_path_migration="promotion",
        page_size_handling="none",
    )

    PROMOTION_THRESHOLD = 2  # faults before promotion

    def __init__(
        self,
        scan_period_ns: float = 12e6,
        scan_fraction: float = 0.15,
        free_headroom: float = 0.02,
        fault_count_decay_ns: float = 400e6,
    ):
        super().__init__()
        self.scan_period_ns = scan_period_ns
        self.scan_fraction = scan_fraction
        self.free_headroom = free_headroom
        self.fault_count_decay_ns = fault_count_decay_ns
        self._next_scan_ns = 0.0
        self._next_decay_ns = fault_count_decay_ns
        self._scan_cursor = 0
        self._fault_count = None
        self.promotions = 0
        self.demotions = 0

    def bind(self, ctx: PolicyContext) -> None:
        super().bind(ctx)
        self._ensure_protection_mask()
        self._fault_count = np.zeros(ctx.space.num_vpns, dtype=np.int16)

    def choose_alloc_tier(self, nbytes: int) -> int:
        # New pages go to DRAM; the demotion daemon maintains headroom.
        return FASTEST_TIER

    # -- scanning + background demotion ------------------------------------------

    def on_tick(self, now_ns: float) -> None:
        if now_ns >= self._next_decay_ns:
            # 2Q aging: forget old fault history so "second fault" means
            # "second fault recently".
            self._next_decay_ns = now_ns + self.fault_count_decay_ns
            np.right_shift(self._fault_count, 1, out=self._fault_count)
        if now_ns < self._next_scan_ns:
            return
        self._next_scan_ns = now_ns + self.scan_period_ns
        # TPP tracks only capacity-tier (CXL/NVM) pages with hint faults.
        self.protect_scan_window(
            np.flatnonzero(self.ctx.space.page_tier > FASTEST_TIER),
            self.scan_fraction,
        )
        self._demote_for_headroom()

    def _demote_for_headroom(self) -> None:
        need = self.headroom_deficit(self.free_headroom)
        if not need:
            return
        space = self.ctx.space
        fast_vpns = np.flatnonzero(space.page_tier == FASTEST_TIER)
        # LRU approximation: only *inactive* (non-referenced) pages are
        # demotion candidates; when the whole fast tier is active the
        # demotion daemon stalls, exactly like an empty inactive list.
        inactive = fast_vpns[~space.ref_bit[fast_vpns]]
        self.demotions += self.demote_in_order(inactive, need)
        space.ref_bit[fast_vpns] = False

    # -- fault handler ---------------------------------------------------------------

    def on_hint_faults(self, vpns: np.ndarray) -> float:
        space = self.ctx.space
        critical_ns = 0.0
        for vpn in vpns.tolist():
            rep = self.unprotect_mapping(vpn)
            self._fault_count[rep] += 1
            if space.page_tier[rep] <= FASTEST_TIER:
                continue
            if self._fault_count[rep] < self.PROMOTION_THRESHOLD:
                continue
            if not self.ctx.tiers.fast.can_alloc(space.mapping_bytes(rep)):
                continue
            critical_ns += self.ctx.migrator.migrate_page(
                rep, FASTEST_TIER, critical=True
            )
            self._fault_count[rep] = 0
            self.promotions += 1
        return critical_ns

    def on_unmap(self, base_vpn: int, num_vpns: int) -> None:
        if self.protection_mask is not None:
            self.protection_mask[base_vpn : base_vpn + num_vpns] = False
        if self._fault_count is not None:
            self._fault_count[base_vpn : base_vpn + num_vpns] = 0

    def stats(self) -> Dict[str, float]:
        return {
            "promotions": float(self.promotions),
            "demotions": float(self.demotions),
        }
