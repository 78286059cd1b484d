"""TierBPF-style admission-controlled promotion (arXiv:2604.12300).

The system's thesis: most tiering designs promote *every* page that
crosses a hotness bar, but a promotion only pays off when the page stays
hot long enough for the saved access latency to amortise the migration
cost.  TierBPF therefore gates promotions behind an **admission filter**
-- a predicted-benefit test plus a token-bucket migration budget --
implemented as a small BPF program in the kernel's promotion path.

The model here:

* PEBS sample counts per page (HeMem-style recency+frequency window).
* **Benefit prediction**: a candidate's sampled count, multiplied by the
  sampling period, estimates its accesses over the last window; each
  access saved earns the machine's fast/slow latency gap.  The candidate
  is admitted only when that predicted saving exceeds the modeled
  migration cost times a safety margin.
* **Token budget**: admitted promotions spend bytes from a bucket
  refilled at ``budget_bytes_per_sec`` of simulated time, bounding
  migration bandwidth regardless of how many pages qualify.

Preserved defect (the paper's own evaluation, §5): the predictor is a
*backward-looking* window.  A page that just became hot has a small
count, predicts a small benefit, and is rejected -- exactly while
serving its heaviest traffic from the slow tier.  Under phased
workloads, admission misprediction plus budget starvation turns into a
measurable throughput loss versus an unconditional promoter; the
``rejected_benefit``/``rejected_budget`` stats make the loss visible.
"""

from __future__ import annotations

from typing import Dict, Set

import numpy as np

from repro.mem.tiers import FASTEST_TIER
from repro.pebs.sampler import SamplerConfig
from repro.policies.base import BatchObservation, PolicyContext, TieringPolicy, Traits


class TierBPFPolicy(TieringPolicy):
    """PEBS counts behind a benefit-predicted, token-budgeted admission gate."""

    name = "tierbpf"
    uses_pebs = True
    traits = Traits(
        mechanism="HW-based sampling",
        subpage_tracking=False,
        promotion_metric="predicted benefit / cost",
        demotion_metric="recency + frequency",
        threshold_criteria="admission filter + token budget",
        critical_path_migration="none",
        page_size_handling="none",
    )

    def __init__(
        self,
        hot_threshold: int = 4,
        cooling_threshold: int = 32,
        benefit_margin: float = 2.0,
        budget_bytes_per_sec: float = 256e6,
        migrate_period_ns: float = 100e6,
        free_headroom: float = 0.02,
    ):
        super().__init__()
        self.hot_threshold = hot_threshold
        self.cooling_threshold = cooling_threshold
        self.benefit_margin = benefit_margin
        self.budget_bytes_per_sec = budget_bytes_per_sec
        self.migrate_period_ns = migrate_period_ns
        self.free_headroom = free_headroom
        self._count = None
        self._candidates: Set[int] = set()
        self._next_migrate_ns = 0.0
        self._last_refill_ns = 0.0
        self._tokens = 0.0
        self.admitted = 0
        self.rejected_benefit = 0
        self.rejected_budget = 0
        self.demotions = 0
        self.coolings = 0

    def sampler_config(self) -> SamplerConfig:
        return SamplerConfig(load_period=200, store_period=100_000)

    def bind(self, ctx: PolicyContext) -> None:
        super().bind(ctx)
        self._count = np.zeros(ctx.space.num_vpns, dtype=np.int32)
        # Start with one refill period of tokens so the first migration
        # tick is not trivially starved.
        self._tokens = self.budget_bytes_per_sec * self.migrate_period_ns / 1e9

    # -- admission filter ------------------------------------------------------

    def _predicted_benefit_ns(self, vpn: int) -> float:
        """Latency saved over the next window if ``vpn`` moved to DRAM.

        Each PEBS sample stands for ``load_period`` real accesses; a
        promoted page saves the fast/slow latency gap on each.  The
        window count is the backward-looking estimate of the forward
        rate -- the source of the misprediction defect.
        """
        period = self.ctx.sampler.config.load_period if self.ctx.sampler else 200
        est_accesses = float(self._count[vpn]) * period
        return est_accesses * self.ctx.tiers.latency_gap

    def _migration_cost_ns(self, nbytes: int) -> float:
        params = self.ctx.migrator.params
        return (
            params.per_page_fixed_ns
            + params.copy_ns(nbytes)
            + params.shootdown_ns
        )

    # -- sample processing -----------------------------------------------------

    def on_batch(self, obs: BatchObservation) -> float:
        samples = obs.samples
        if samples is None or len(samples) == 0:
            return 0.0
        space = self.ctx.space
        heads = space.mapping_heads(samples.vpn)
        np.add.at(self._count, heads, 1)
        hot = heads[self._count[heads] >= self.hot_threshold]
        for vpn in np.unique(hot).tolist():
            if space.page_tier[vpn] > FASTEST_TIER:
                self._candidates.add(int(vpn))
        if len(heads) and int(self._count[heads].max()) >= self.cooling_threshold:
            self._count >>= 1
            self.coolings += 1
        return 0.0

    # -- background migration --------------------------------------------------

    def on_tick(self, now_ns: float) -> None:
        # The token bucket refills with simulated time even between
        # migration ticks so budget accrues at the configured rate.
        if now_ns > self._last_refill_ns:
            self._tokens = min(
                self._tokens
                + (now_ns - self._last_refill_ns) / 1e9 * self.budget_bytes_per_sec,
                # Cap at one second of budget: idle time cannot bank an
                # unbounded burst.
                self.budget_bytes_per_sec,
            )
            self._last_refill_ns = now_ns
        if now_ns < self._next_migrate_ns:
            return
        self._next_migrate_ns = now_ns + self.migrate_period_ns
        space = self.ctx.space

        for vpn in sorted(self._candidates):
            if space.page_tier[vpn] <= FASTEST_TIER:
                continue
            nbytes = space.mapping_bytes(vpn)
            benefit = self._predicted_benefit_ns(vpn)
            cost = self._migration_cost_ns(nbytes)
            if benefit < cost * self.benefit_margin:
                self.rejected_benefit += 1
                continue
            if self._tokens < nbytes:
                self.rejected_budget += 1
                continue
            if not self.promote_with_room(vpn, self._demote_cold):
                break
            self._tokens -= nbytes
            self.admitted += 1
        self._candidates.clear()

        deficit = self.headroom_deficit(self.free_headroom)
        if deficit:
            self._demote_cold(deficit)

    def _demote_cold(self, nbytes_needed: int) -> None:
        """Demote the coldest fast-tier pages (demotions are not gated:
        the admission filter protects the *promotion* path only)."""
        heads = self.fast_heads()
        order = np.argsort(self._count[heads], kind="stable")
        self.demotions += self.demote_in_order(heads[order], nbytes_needed)

    # -- bookkeeping -----------------------------------------------------------

    def on_unmap(self, base_vpn: int, num_vpns: int) -> None:
        if self._count is not None:
            self._count[base_vpn : base_vpn + num_vpns] = 0
        self._candidates = {
            v for v in self._candidates if not base_vpn <= v < base_vpn + num_vpns
        }

    def stats(self) -> Dict[str, float]:
        return {
            "admitted": float(self.admitted),
            "rejected_benefit": float(self.rejected_benefit),
            "rejected_budget": float(self.rejected_budget),
            "demotions": float(self.demotions),
            "coolings": float(self.coolings),
            "budget_tokens": float(self._tokens),
        }
