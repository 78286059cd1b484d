"""Thermostat (ASPLOS'17) baseline -- cited in the paper's §7.

"Thermostat precisely detects the access frequency of huge pages using
page faults, which incur significant tracking overhead."  Mechanism:
each interval a random *sample* of huge pages is poisoned (all their
accesses fault); the fault rate observed during the poisoning window
estimates each sampled page's access frequency.  Pages are then
classified hot/cold against a throughput-loss budget and cold pages are
demoted to the capacity tier at huge-page granularity (Thermostat never
splits -- it predates skewness-aware sizing).

The instructive contrast with MEMTIS: the estimates are accurate, but
(1) every poisoned access pays a fault on the critical path, and (2)
placement is all-or-nothing per 2 MiB page.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.mem.pages import HUGE_PAGE_SIZE, SUBPAGES_PER_HUGE
from repro.mem.tiers import FASTEST_TIER
from repro.policies.base import PolicyContext, TieringPolicy, Traits


class ThermostatPolicy(TieringPolicy):
    """Poisoning-based huge-page access-rate estimation."""

    name = "thermostat"
    traits = Traits(
        mechanism="page fault (poisoning)",
        subpage_tracking=False,
        promotion_metric="estimated access rate",
        demotion_metric="estimated access rate",
        threshold_criteria="throughput-loss budget",
        critical_path_migration="none",
        page_size_handling="huge pages only",
    )

    def __init__(
        self,
        sample_fraction: float = 0.10,
        poison_period_ns: float = 20e6,
        migrate_period_ns: float = 10e6,
        cold_fraction_target: float = None,
        rate_decay: float = 0.5,
    ):
        super().__init__()
        self.sample_fraction = sample_fraction
        self.poison_period_ns = poison_period_ns
        self.migrate_period_ns = migrate_period_ns
        self.cold_fraction_target = cold_fraction_target
        self.rate_decay = rate_decay
        self._next_poison_ns = 0.0
        self._next_migrate_ns = 0.0
        self._rate = None        # EMA of faults per poisoning window, per hpn
        self._measured = None    # hpn has at least one estimate
        self._faults_window = None
        #: hpns poisoned this window (a list: its length changes with
        #: every rotation, and a checkpoint restores arrays in place).
        self._poisoned_hpns: List[int] = []
        self.poison_faults = 0

    def bind(self, ctx: PolicyContext) -> None:
        super().bind(ctx)
        self._ensure_protection_mask()
        if self.cold_fraction_target is None:
            # Default: the capacity tier's share of total memory -- the
            # fraction of pages that *must* live there.
            total = (ctx.tiers.fast.capacity_bytes
                     + ctx.tiers.slowest.capacity_bytes)
            self.cold_fraction_target = ctx.tiers.slowest.capacity_bytes / total
        num_hpns = ctx.space.num_hpns
        self._rate = np.zeros(num_hpns, dtype=np.float64)
        self._measured = np.zeros(num_hpns, dtype=bool)
        self._faults_window = np.zeros(num_hpns, dtype=np.int64)

    # -- poisoning cycle -----------------------------------------------------

    def on_tick(self, now_ns: float) -> None:
        if now_ns >= self._next_poison_ns:
            self._next_poison_ns = now_ns + self.poison_period_ns
            self._rotate_poison_set()
        if now_ns >= self._next_migrate_ns:
            self._next_migrate_ns = now_ns + self.migrate_period_ns
            self._migrate()

    def _rotate_poison_set(self) -> None:
        """Fold the window's fault counts in; poison a fresh sample."""
        space = self.ctx.space
        if self._poisoned_hpns:
            for hpn in self._poisoned_hpns:
                head = hpn << 9
                self.protection_mask[head : head + SUBPAGES_PER_HUGE] = False
                self._rate[hpn] = (
                    self.rate_decay * self._faults_window[hpn]
                    + (1 - self.rate_decay) * self._rate[hpn]
                )
                self._measured[hpn] = True
            self._faults_window[self._poisoned_hpns] = 0

        hpns = space.mapped_huge_hpns()
        if len(hpns) == 0:
            self._poisoned_hpns = []
            return
        take = max(1, int(len(hpns) * self.sample_fraction))
        self._poisoned_hpns = self.ctx.rng.choice(
            hpns, size=take, replace=False).tolist()
        for hpn in self._poisoned_hpns:
            head = hpn << 9
            self.protection_mask[head : head + SUBPAGES_PER_HUGE] = True

    def on_hint_faults(self, vpns: np.ndarray) -> float:
        """Poisoned-page faults: record the access, keep the poison armed.

        Unlike NUMA-hint faults, Thermostat's poisoning keeps counting
        for the whole window, so every access to a sampled page faults --
        the "significant tracking overhead" the paper criticises.
        """
        hpns = vpns >> 9
        np.add.at(self._faults_window, hpns, 1)
        self.poison_faults += len(vpns)
        return 0.0  # classification is offline; the fault cost itself is
        # already charged by the engine per faulting access

    # -- placement ---------------------------------------------------------------

    def _migrate(self) -> None:
        space = self.ctx.space
        tiers = self.ctx.tiers
        hpns = space.mapped_huge_hpns()
        measured = hpns[self._measured[hpns]]
        if len(measured) == 0:
            return
        # Cold = no faults observed while poisoned (genuinely idle);
        # the cold-fraction target caps how much DRAM may be vacated per
        # round, mirroring Thermostat's throughput-loss budget.
        rates = self._rate[measured]
        idle = measured[rates < 1.0]
        hot_order = np.argsort(-rates)
        hot_list = measured[hot_order][rates[hot_order] >= 1.0].tolist()
        budget = int(len(measured) * self.cold_fraction_target)
        cold_list = idle[:budget].tolist()
        migrator = self.ctx.migrator
        # Own loops: placement moves whole huge pages by hpn, never a
        # base page, so the head/size-generic helpers do not apply.
        # Demote classified-cold pages out of DRAM first...
        for hpn in cold_list:
            if space.page_tier[hpn << 9] == FASTEST_TIER:
                migrator.migrate_huge(hpn, self.demote_target(), critical=False)
        # ...then pull classified-hot pages in while room remains.
        for hpn in hot_list:
            if space.page_tier[hpn << 9] <= FASTEST_TIER:
                continue
            if not tiers.fast.can_alloc(HUGE_PAGE_SIZE):
                break
            migrator.migrate_huge(hpn, FASTEST_TIER, critical=False)

    def on_unmap(self, base_vpn: int, num_vpns: int) -> None:
        if self.protection_mask is not None:
            self.protection_mask[base_vpn : base_vpn + num_vpns] = False
        if self._rate is not None:
            lo = base_vpn >> 9
            hi = (base_vpn + num_vpns + SUBPAGES_PER_HUGE - 1) >> 9
            self._rate[lo:hi] = 0.0
            self._measured[lo:hi] = False
            self._faults_window[lo:hi] = 0

    def stats(self) -> Dict[str, float]:
        return {
            "poison_faults": float(self.poison_faults),
            "measured_hpns": float(int(self._measured.sum())),
        }
