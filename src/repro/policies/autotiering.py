"""AutoTiering (ATC'21) baseline.

Table 1 row: page-fault tracking, recency promotion, frequency (LFU)
demotion, static promotion threshold + LFU demotion selection, promotion
on the critical path.

Mechanism: NUMA-hint faults drive *opportunistic promotion with
exchange*: a faulting capacity-tier page is promoted immediately; if the
fast tier is full, it is exchanged with the fast-tier page that has the
lowest N-bit access-history value (LFU victim).  A background demotion
thread keeps a small free reserve on the fast tier, but that reserve is
used **only for promotions** -- fresh allocations are directed to the
capacity tier once DRAM passes its watermark, which is why short-lived
allocations (603.bwaves) land on slow memory (§6.2.6).
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.mem.tiers import FASTEST_TIER
from repro.policies.base import PolicyContext, TieringPolicy, Traits


class AutoTieringPolicy(TieringPolicy):
    """Hint-fault promotion with LFU exchange and reserved headroom."""

    name = "autotiering"
    traits = Traits(
        mechanism="page fault",
        subpage_tracking=False,
        promotion_metric="recency",
        demotion_metric="frequency",
        threshold_criteria="static count (promo) / LFU (demo)",
        critical_path_migration="promotion",
        page_size_handling="none",
    )

    HISTORY_BITS = 8

    def __init__(
        self,
        scan_period_ns: float = 12e6,
        scan_fraction: float = 0.15,
        reserve_fraction: float = 0.04,
        alloc_watermark: float = 0.10,
        exchange_budget_bytes: int = 1024 * 1024,
    ):
        super().__init__()
        self.scan_period_ns = scan_period_ns
        self.scan_fraction = scan_fraction
        self.reserve_fraction = reserve_fraction
        self.alloc_watermark = alloc_watermark
        self.exchange_budget_bytes = exchange_budget_bytes
        self._next_scan_ns = 0.0
        self._scan_cursor = 0
        self._history = None  # per-vpn N-bit access history (uint8)
        self._exchange_budget_left = exchange_budget_bytes
        self.exchanges = 0
        self.promotions = 0

    def bind(self, ctx: PolicyContext) -> None:
        super().bind(ctx)
        self._ensure_protection_mask()
        self._history = np.zeros(ctx.space.num_vpns, dtype=np.uint8)

    def choose_alloc_tier(self, nbytes: int) -> int:
        # Reserved fast-tier pages serve promotions only: new data goes to
        # the next-slower tier once DRAM is below the allocation watermark.
        if self.fast_free_fraction() > self.alloc_watermark:
            return FASTEST_TIER
        return self.demote_target()

    # -- scanner: protect a window and age histories -----------------------------

    def on_tick(self, now_ns: float) -> None:
        if now_ns < self._next_scan_ns:
            return
        self._next_scan_ns = now_ns + self.scan_period_ns
        space = self.ctx.space
        mapped_vpns = np.flatnonzero(space.page_tier >= 0)
        if len(mapped_vpns) == 0:
            return
        # Age every history vector (shift in a zero for this interval)
        # and refill the per-interval exchange budget.
        np.right_shift(self._history, 1, out=self._history)
        self._exchange_budget_left = self.exchange_budget_bytes
        self.protect_scan_window(mapped_vpns, self.scan_fraction)
        self._background_demote()

    def _background_demote(self) -> None:
        """Keep a promotion reserve free by demoting LFU-coldest pages."""
        need = self.headroom_deficit(self.reserve_fraction)
        if not need:
            return
        fast_vpns = np.flatnonzero(self.ctx.space.page_tier == FASTEST_TIER)
        order = np.argsort(self._history[fast_vpns], kind="stable")
        self.demote_in_order(fast_vpns[order], need)

    # -- fault handler ---------------------------------------------------------

    def on_hint_faults(self, vpns: np.ndarray) -> float:
        space = self.ctx.space
        critical_ns = 0.0
        top_bit = np.uint8(1 << (self.HISTORY_BITS - 1))
        for vpn in vpns.tolist():
            rep = self.unprotect_mapping(vpn)
            self._history[rep] |= top_bit
            if space.page_tier[rep] <= FASTEST_TIER:
                continue  # already fastest (or unmapped)
            nbytes = space.mapping_bytes(rep)
            if self.ctx.tiers.fast.can_alloc(nbytes):
                critical_ns += self.ctx.migrator.migrate_page(
                    rep, FASTEST_TIER, critical=True
                )
                self.promotions += 1
            else:
                critical_ns += self._exchange(rep, nbytes)
        return critical_ns

    def _exchange(self, vpn: int, nbytes: int) -> float:
        """Swap the faulting page with the LFU-coldest fast-tier page.

        Exchanges happen on the fault path (critical); a per-interval
        byte budget keeps the induced latency bounded, as the original
        system's migration throttling does.  Own step rather than the
        shared helpers: both moves are critical-path, against a single
        LFU victim that must be colder than the faulting page.
        """
        if self._exchange_budget_left < 2 * nbytes:
            return 0.0
        space = self.ctx.space
        fast_vpns = np.flatnonzero(space.page_tier == FASTEST_TIER)
        if len(fast_vpns) == 0:
            return 0.0
        victim = int(fast_vpns[np.argmin(self._history[fast_vpns])])
        # Never exchange with a hotter page.
        if self._history[victim] >= self._history[vpn]:
            return 0.0
        ns = self.ctx.migrator.migrate_page(victim, self.demote_target(), critical=True)
        if self.ctx.tiers.fast.can_alloc(nbytes):
            ns += self.ctx.migrator.migrate_page(vpn, FASTEST_TIER, critical=True)
            self.exchanges += 1
        self._exchange_budget_left -= 2 * nbytes
        return ns

    def on_unmap(self, base_vpn: int, num_vpns: int) -> None:
        if self.protection_mask is not None:
            self.protection_mask[base_vpn : base_vpn + num_vpns] = False
        if self._history is not None:
            self._history[base_vpn : base_vpn + num_vpns] = 0

    def stats(self) -> Dict[str, float]:
        return {
            "promotions": float(self.promotions),
            "exchanges": float(self.exchanges),
        }
