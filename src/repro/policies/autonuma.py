"""AutoNUMA (Linux automatic NUMA balancing) baseline.

Table 1 row: page-fault access tracking, no subpage tracking, recency
promotion metric, *no demotion*, static access-count threshold of one,
promotion on the critical path.

Mechanism: a scanner periodically write-protects a sliding window of
mapped pages; the next touch of a protected page takes a NUMA-hint
fault.  The fault handler migrates the page towards the faulting task's
node immediately -- in a tiered system, that promotes capacity-tier
pages to DRAM inside the fault, with the application blocked (§2.2).
Because AutoNUMA has no demotion, the fast tier silts up with whatever
got promoted (or allocated) first -- which ironically *helps* XSBench at
1:2 where the early allocations are the hot region (§6.2.2).
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.mem.tiers import FASTEST_TIER
from repro.policies.base import PolicyContext, TieringPolicy, Traits


class AutoNUMAPolicy(TieringPolicy):
    """NUMA-hint-fault promotion, no demotion."""

    name = "autonuma"
    traits = Traits(
        mechanism="page fault",
        subpage_tracking=False,
        promotion_metric="recency",
        demotion_metric="-",
        threshold_criteria="static access count",
        critical_path_migration="promotion",
        page_size_handling="none",
    )

    def __init__(
        self,
        scan_period_ns: float = 12e6,
        scan_fraction: float = 0.15,
        rate_limit_bytes_per_s: float = 4 * 1024**4,
    ):
        super().__init__()
        self.scan_period_ns = scan_period_ns
        self.scan_fraction = scan_fraction
        self.rate_limit_bytes_per_s = rate_limit_bytes_per_s
        self._next_scan_ns = 0.0
        self._scan_cursor = 0
        self._migrated_bytes_window = 0
        self._window_start_ns = 0.0
        self.promoted_on_fault = 0

    def bind(self, ctx: PolicyContext) -> None:
        super().bind(ctx)
        self._ensure_protection_mask()

    # -- scanner -------------------------------------------------------------

    def on_tick(self, now_ns: float) -> None:
        if now_ns < self._next_scan_ns:
            return
        self._next_scan_ns = now_ns + self.scan_period_ns
        self.protect_scan_window(
            np.flatnonzero(self.ctx.space.page_tier >= 0), self.scan_fraction
        )

    # -- fault handler ----------------------------------------------------------

    def on_hint_faults(self, vpns: np.ndarray) -> float:
        space = self.ctx.space
        critical_ns = 0.0
        for vpn in vpns.tolist():
            self.unprotect_mapping(vpn)
            if space.page_tier[vpn] <= FASTEST_TIER:
                continue  # already on the fastest tier (or unmapped)
            nbytes = space.mapping_bytes(vpn)
            if not self.ctx.tiers.fast.can_alloc(nbytes):
                continue  # no demotion: once DRAM is full, promotion stops
            if not self._rate_allows(nbytes):
                continue
            critical_ns += self.ctx.migrator.migrate_page(
                int(vpn), FASTEST_TIER, critical=True
            )
            self.promoted_on_fault += 1
        return critical_ns

    def _rate_allows(self, nbytes: int) -> bool:
        # Token-bucket style rate limit over 100 ms windows.
        now = self._next_scan_ns  # close enough to "now" for limiting
        if now - self._window_start_ns > 100e6:
            self._window_start_ns = now
            self._migrated_bytes_window = 0
        budget = self.rate_limit_bytes_per_s * 0.1
        if self._migrated_bytes_window + nbytes > budget:
            return False
        self._migrated_bytes_window += nbytes
        return True

    def on_unmap(self, base_vpn: int, num_vpns: int) -> None:
        if self.protection_mask is not None:
            self.protection_mask[base_vpn : base_vpn + num_vpns] = False

    def stats(self) -> Dict[str, float]:
        return {"promoted_on_fault": float(self.promoted_on_fault)}
