"""Nimble Page Management (ASPLOS'19) baseline.

Table 1 row: page-table scanning, recency promotion and demotion, static
access-count threshold (one: referenced in the last scan interval means
hot), migrations off the critical path.

Mechanism: every scan interval the reference bits of all mapped pages
are harvested and cleared; every referenced capacity-tier page is
promoted (exchanging with non-referenced fast-tier pages when DRAM is
full).  Because "accessed once in the interval" is the hotness bar,
workloads that touch a broad footprint per interval (Silo's zipfian tail)
mark far more pages hot than DRAM holds, producing the paper's 56x
migration-traffic blow-up (§6.2.4).  Scanning the whole page table also
costs CPU proportional to the footprint -- the scalability wall of §2.1.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.mem.tiers import FASTEST_TIER
from repro.policies.base import TieringPolicy, Traits


class NimblePolicy(TieringPolicy):
    """Full page-table scan; promote everything referenced last interval."""

    name = "nimble"
    traits = Traits(
        mechanism="PT scanning",
        subpage_tracking=False,
        promotion_metric="recency",
        demotion_metric="recency",
        threshold_criteria="static access count",
        critical_path_migration="none",
        page_size_handling="none",
    )

    def __init__(
        self,
        scan_period_ns: float = 120e6,
        scan_ns_per_page: float = 12.0,
        exchange_budget_fraction: float = 0.5,
    ):
        super().__init__()
        self.scan_period_ns = scan_period_ns
        self.scan_ns_per_page = scan_ns_per_page
        self.exchange_budget_fraction = exchange_budget_fraction
        self._next_scan_ns = 0.0
        self._scan_cpu_ns = 0.0
        self.promotions = 0
        self.demotions = 0

    def on_tick(self, now_ns: float) -> None:
        if now_ns < self._next_scan_ns:
            return
        self._next_scan_ns = now_ns + self.scan_period_ns
        space = self.ctx.space
        mapped = space.page_tier >= 0
        num_mapped = int(np.count_nonzero(mapped))
        # Full page-table scan cost (kernel thread, grows with footprint).
        self._scan_cpu_ns += num_mapped * self.scan_ns_per_page

        hot_cap = np.flatnonzero(space.ref_bit & (space.page_tier > FASTEST_TIER))
        # Deduplicate to page heads.  The promotion order is arbitrary
        # (LRU-list order in the original); shuffle so no address range
        # is systematically favoured.
        hot_cap = self.ctx.rng.permutation(np.unique(space.mapping_heads(hot_cap)))
        cold_fast = self.fast_heads(~space.ref_bit)

        # Exchange-based migration: promote hot capacity pages, demoting
        # cold fast pages to make room.  Budget caps one interval's churn.
        budget = int(
            self.ctx.tiers.fast.capacity_bytes * self.exchange_budget_fraction
        )
        # Own victim loop: one iterator is drained across all promotions
        # of the interval, not re-ranked per promotion.
        migrator = self.ctx.migrator
        cold_iter = iter(cold_fast.tolist())
        for vpn in hot_cap.tolist():
            nbytes = space.mapping_bytes(vpn)
            if budget < nbytes:
                break
            while not self.ctx.tiers.fast.can_alloc(nbytes):
                victim = next(cold_iter, None)
                if victim is None:
                    break
                if space.page_tier[victim] != FASTEST_TIER:
                    continue
                migrator.migrate_page(victim, self.demote_target(), critical=False)
                self.demotions += 1
            if not self.ctx.tiers.fast.can_alloc(nbytes):
                break
            migrator.migrate_page(vpn, FASTEST_TIER, critical=False)
            self.promotions += 1
            budget -= nbytes

        # Harvest: clear reference bits for the next interval.
        space.ref_bit[mapped] = False

    def on_batch(self, obs) -> float:
        # The scanning thread competes for CPU on a saturated machine;
        # amortise accumulated scan time into the runtime.
        ns, self._scan_cpu_ns = self._scan_cpu_ns, 0.0
        return ns / max(1, self.ctx.machine.cores)

    def stats(self) -> Dict[str, float]:
        return {
            "promotions": float(self.promotions),
            "demotions": float(self.demotions),
        }
