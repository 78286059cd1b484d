"""Tiering-0.8 (kernel patch series) baseline.

Table 1 row: page-fault tracking, recency promotion, recency demotion,
*promotion rate* thresholding, promotion on the critical path.

Mechanism: hint faults measure an approximate re-fault interval -- a
page faulted twice within the recency window is considered warm enough
to promote, throttled by a promotion-rate cap.  A kswapd-style reclaim
demotes not-recently-referenced pages to keep free space in DRAM, so
fresh (short-lived) allocations land in the fast tier -- the behaviour
that makes it competitive on 603.bwaves (§6.2.6) and the second-best
system on Silo/Btree before splitting is considered (Fig. 11).
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.mem.tiers import FASTEST_TIER
from repro.policies.base import PolicyContext, TieringPolicy, Traits


class Tiering08Policy(TieringPolicy):
    """Re-fault-interval promotion with rate throttling + reclaim demotion."""

    name = "tiering-0.8"
    traits = Traits(
        mechanism="page fault",
        subpage_tracking=False,
        promotion_metric="recency",
        demotion_metric="recency",
        threshold_criteria="promotion rate",
        critical_path_migration="promotion",
        page_size_handling="none",
    )

    def __init__(
        self,
        scan_period_ns: float = 12e6,
        scan_fraction: float = 0.15,
        refault_window_ns: float = 250e6,
        promotion_rate_bytes_per_s: float = 600 * 1024**2 * 1e3,
        free_watermark: float = 0.04,
    ):
        super().__init__()
        self.scan_period_ns = scan_period_ns
        self.scan_fraction = scan_fraction
        self.refault_window_ns = refault_window_ns
        self.promotion_rate_bytes_per_s = promotion_rate_bytes_per_s
        self.free_watermark = free_watermark
        self._next_scan_ns = 0.0
        self._scan_cursor = 0
        self._last_fault_ns = None  # per-vpn last hint-fault time
        self._now_ns = 0.0
        self._rate_window_start = 0.0
        self._rate_window_bytes = 0
        self.promotions = 0
        self.throttled = 0

    def bind(self, ctx: PolicyContext) -> None:
        super().bind(ctx)
        self._ensure_protection_mask()
        self._last_fault_ns = np.full(ctx.space.num_vpns, -np.inf, dtype=np.float64)

    # -- scanning + reclaim ---------------------------------------------------

    def on_tick(self, now_ns: float) -> None:
        self._now_ns = now_ns
        if now_ns < self._next_scan_ns:
            return
        self._next_scan_ns = now_ns + self.scan_period_ns
        self.protect_scan_window(
            np.flatnonzero(self.ctx.space.page_tier >= 0), self.scan_fraction
        )
        self._reclaim_demote()

    def _reclaim_demote(self) -> None:
        """kswapd: demote non-referenced fast pages below the watermark."""
        need = self.headroom_deficit(self.free_watermark)
        if not need:
            return
        space = self.ctx.space
        fast_vpns = np.flatnonzero(space.page_tier == FASTEST_TIER)
        # Reclaim only scans the inactive list: non-referenced pages,
        # oldest hint-fault time first.
        inactive = fast_vpns[~space.ref_bit[fast_vpns]]
        order = np.argsort(self._last_fault_ns[inactive], kind="stable")
        self.demote_in_order(inactive[order], need)
        # Clear reference bits so the next window measures fresh recency.
        space.ref_bit[fast_vpns] = False

    # -- fault handler -----------------------------------------------------------

    def on_hint_faults(self, vpns: np.ndarray) -> float:
        space = self.ctx.space
        critical_ns = 0.0
        for vpn in vpns.tolist():
            rep = self.unprotect_mapping(vpn)
            last = self._last_fault_ns[rep]
            self._last_fault_ns[rep] = self._now_ns
            if space.page_tier[rep] <= FASTEST_TIER:
                continue
            if self._now_ns - last > self.refault_window_ns:
                continue  # re-fault too slow: not promotion material
            nbytes = space.mapping_bytes(rep)
            if not self._rate_allows(nbytes):
                self.throttled += 1
                continue
            if not self.ctx.tiers.fast.can_alloc(nbytes):
                continue
            critical_ns += self.ctx.migrator.migrate_page(
                rep, FASTEST_TIER, critical=True
            )
            self.promotions += 1
        return critical_ns

    def _rate_allows(self, nbytes: int) -> bool:
        if self._now_ns - self._rate_window_start > 100e6:
            self._rate_window_start = self._now_ns
            self._rate_window_bytes = 0
        budget = self.promotion_rate_bytes_per_s * 0.1 / 1e3
        if self._rate_window_bytes + nbytes > budget:
            return False
        self._rate_window_bytes += nbytes
        return True

    def on_unmap(self, base_vpn: int, num_vpns: int) -> None:
        if self.protection_mask is not None:
            self.protection_mask[base_vpn : base_vpn + num_vpns] = False
        if self._last_fault_ns is not None:
            self._last_fault_ns[base_vpn : base_vpn + num_vpns] = -np.inf

    def stats(self) -> Dict[str, float]:
        return {
            "promotions": float(self.promotions),
            "throttled": float(self.throttled),
        }
