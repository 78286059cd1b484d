"""HeMem (SOSP'21) baseline.

Table 1 row: hardware-based sampling (PEBS), no subpage tracking,
recency+frequency promotion and demotion metrics, *static* access-count
thresholds, migrations off the critical path.

The two defects the paper demonstrates (§2.2, Fig. 2; §6.2.9):

1. **Static thresholds.**  A page is hot once its sample count reaches a
   fixed bar; when any count reaches the cooling bar, every count is
   halved.  The classified hot set therefore bears no relation to the
   fast tier's capacity: on PageRank it identifies a few MB (DRAM gets
   filled with arbitrary cold pages), on XSBench it briefly identifies
   more than DRAM holds (an arbitrary subset gets placed).
2. **Dedicated sampling threads.**  HeMem's user-level sampler spins on
   a core; with the application using all 20 cores it loses ~a core of
   throughput (modelled as a contention factor), which Fig. 8's
   16-thread experiment removes.

HeMem also places *small allocations* directly in DRAM regardless of
hotness (the paper measures the resulting "over-allocation", Table 3);
we reproduce this by pinning allocations below a size threshold to the
fast tier.
"""

from __future__ import annotations

from typing import Dict, Set

import numpy as np

from repro.mem.pages import BASE_PAGE_SIZE, HUGE_PAGE_SIZE
from repro.mem.tiers import FASTEST_TIER
from repro.policies.base import BatchObservation, PolicyContext, TieringPolicy, Traits
from repro.pebs.sampler import SamplerConfig


class HeMemPolicy(TieringPolicy):
    """PEBS sampling with static hot/cooling thresholds."""

    name = "hemem"
    uses_pebs = True
    traits = Traits(
        mechanism="HW-based sampling",
        subpage_tracking=False,
        promotion_metric="recency + frequency",
        demotion_metric="recency + frequency",
        threshold_criteria="static access count",
        critical_path_migration="none",
        page_size_handling="none",
    )

    def __init__(
        self,
        hot_threshold: int = 8,
        cooling_threshold: int = 18,
        migrate_period_ns: float = 100e6,
        small_alloc_fraction: float = 0.03,
        free_headroom: float = 0.02,
        dedicated_core_cost: float = 1.2,
    ):
        super().__init__()
        self.hot_threshold = hot_threshold
        self.cooling_threshold = cooling_threshold
        self.migrate_period_ns = migrate_period_ns
        self.small_alloc_fraction = small_alloc_fraction
        self.free_headroom = free_headroom
        self.dedicated_core_cost = dedicated_core_cost
        self._next_migrate_ns = 0.0
        self._count = None
        self._pinned = None
        self._promote: Set[int] = set()
        self._small_alloc_max = 0
        self.overallocated_bytes = 0
        self.coolings = 0
        self.promotions = 0
        self.demotions = 0
        self.halted_ticks = 0

    def sampler_config(self) -> SamplerConfig:
        # HeMem samples aggressively and never adapts its period.
        return SamplerConfig(load_period=200, store_period=100_000)

    def bind(self, ctx: PolicyContext) -> None:
        super().bind(ctx)
        self._count = np.zeros(ctx.space.num_vpns, dtype=np.int32)
        self._pinned = np.zeros(ctx.space.num_vpns, dtype=bool)
        total = ctx.tiers.total_capacity_bytes()
        self._small_alloc_max = int(total * self.small_alloc_fraction)

    def choose_alloc_tier(self, nbytes: int) -> int:
        # Small allocations always go to DRAM (over-allocation); big
        # ones also prefer DRAM and spill per chunk like everyone else.
        return FASTEST_TIER

    def on_region_alloc(self, region) -> None:
        if region.nbytes <= self._small_alloc_max:
            # Pin the small allocation in DRAM: HeMem never demotes these,
            # which is what the paper's Table 3 over-allocation measures.
            self._pinned[region.base_vpn : region.end_vpn] = True
            self.overallocated_bytes += region.nbytes

    def cpu_contention_factor(self) -> float:
        machine = self.ctx.machine
        if machine.app_threads >= machine.cores:
            return 1.0 + self.dedicated_core_cost / machine.cores
        return 1.0

    # -- sample processing ---------------------------------------------------------

    def on_batch(self, obs: BatchObservation) -> float:
        samples = obs.samples
        if samples is None or len(samples) == 0:
            return 0.0
        space = self.ctx.space
        vpns = samples.vpn
        heads = space.mapping_heads(vpns)
        np.add.at(self._count, heads, 1)
        # Static hot threshold: enqueue capacity pages crossing the bar.
        hot = heads[self._count[heads] >= self.hot_threshold]
        for vpn in np.unique(hot).tolist():
            if space.page_tier[vpn] > FASTEST_TIER:
                self._promote.add(int(vpn))
        # Static cooling: any page at the cooling bar halves every count.
        if len(heads) and int(self._count[heads].max()) >= self.cooling_threshold:
            self._count >>= 1
            self.coolings += 1
        return 0.0

    # -- background migration --------------------------------------------------------

    def on_tick(self, now_ns: float) -> None:
        if now_ns < self._next_migrate_ns:
            return
        self._next_migrate_ns = now_ns + self.migrate_period_ns
        space = self.ctx.space

        # Anti-thrashing: stop migrating when the classified hot set
        # exceeds DRAM (§7 "HeMem halts both page promotion and demotion
        # when the hot set size exceeds the fast tier size").
        if self._hot_bytes() > self.ctx.tiers.fast.capacity_bytes:
            self.halted_ticks += 1
            self._promote.clear()
            return

        for vpn in sorted(self._promote):
            if space.page_tier[vpn] <= FASTEST_TIER:
                continue
            if not self.promote_with_room(vpn, self._demote_cold):
                break
            self.promotions += 1
        self._promote.clear()

        deficit = self.headroom_deficit(self.free_headroom)
        if deficit:
            self._demote_cold(deficit)

    def _demote_cold(self, nbytes_needed: int) -> None:
        """Demote the coldest unpinned fast-tier pages."""
        heads = self.fast_heads(~self._pinned)
        cold = heads[self._count[heads] < self.hot_threshold]
        order = np.argsort(self._count[cold], kind="stable")
        self.demotions += self.demote_in_order(cold[order], nbytes_needed)

    # -- reporting ------------------------------------------------------------------

    def _hot_bytes(self) -> int:
        space = self.ctx.space
        hot_vpns = np.flatnonzero(self._count >= self.hot_threshold)
        if len(hot_vpns) == 0:
            return 0
        sizes = np.where(space.page_huge[hot_vpns], HUGE_PAGE_SIZE, BASE_PAGE_SIZE)
        return int(sizes.sum())

    def on_unmap(self, base_vpn: int, num_vpns: int) -> None:
        if self._count is not None:
            self._count[base_vpn : base_vpn + num_vpns] = 0
            self._pinned[base_vpn : base_vpn + num_vpns] = False

    def stats(self) -> Dict[str, float]:
        return {
            "hot_bytes": float(self._hot_bytes()),
            "promotions": float(self.promotions),
            "demotions": float(self.demotions),
            "coolings": float(self.coolings),
            "overallocated_bytes": float(self.overallocated_bytes),
        }
