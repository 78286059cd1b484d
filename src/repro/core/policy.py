"""MemtisPolicy: the full system, composed of `ksampled` + `kmigrated`.

Everything MEMTIS does -- sample processing, threshold adaptation,
cooling, promotion, demotion, huge-page split/collapse -- happens in
daemon context here; :meth:`on_batch` always returns 0 critical-path
nanoseconds, which is the paper's headline structural property ("the
entire process of MEMTIS ... never extends critical path", §3).

Ablation switches (used by Figs. 10-13):

* ``enable_split=False``  -> MEMTIS-NS (no huge-page split);
* ``enable_warm_set=False`` -> no T_warm demotion protection (vanilla);
* ``dynamic_period=False`` -> fixed PEBS periods;
* ``adaptation_interval_samples`` / ``cooling_interval_samples`` -> the
  Fig. 13 sensitivity sweeps.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional

import numpy as np

from repro.core.config import MemtisConfig
from repro.core.migrator import KMigrated
from repro.core.sampler import KSampled
from repro.mem.tiers import FASTEST_TIER
from repro.pebs.sampler import SamplerConfig
from repro.policies.base import BatchObservation, PolicyContext, TieringPolicy, Traits


class MemtisPolicy(TieringPolicy):
    """Histogram-guided tiering with skewness-aware page sizing."""

    name = "memtis"
    uses_pebs = True
    traits = Traits(
        mechanism="HW-based sampling",
        subpage_tracking=True,
        promotion_metric="EMA of access frequency",
        demotion_metric="EMA of access frequency",
        threshold_criteria="memory access distribution",
        critical_path_migration="none",
        page_size_handling="split based on access skew",
    )

    def __init__(self, config: Optional[MemtisConfig] = None, **overrides):
        super().__init__()
        base = config or MemtisConfig()
        if overrides:
            base = dataclasses.replace(base, **overrides)
        self.config = base
        self.ksampled: Optional[KSampled] = None
        self.kmigrated: Optional[KMigrated] = None

    def sampler_config(self) -> SamplerConfig:
        return SamplerConfig(
            load_period=self.config.load_period,
            store_period=self.config.store_period,
        )

    def bind(self, ctx: PolicyContext) -> None:
        super().bind(ctx)
        total = ctx.tiers.total_capacity_bytes()
        self.config = self.config.resolved(
            fast_bytes=ctx.tiers.fast.capacity_bytes, total_bytes=total
        )
        self.ksampled = KSampled(self.config, ctx)
        self.kmigrated = KMigrated(self.config, ctx, self.ksampled)

    # -- placement: fast tier whenever available (§4.2.1) ---------------------------

    def choose_alloc_tier(self, nbytes: int) -> int:
        return FASTEST_TIER  # per-chunk fallback spills down-tier

    def on_region_alloc(self, region) -> None:
        self.ksampled.on_region_alloc(region)

    def on_unmap(self, base_vpn: int, num_vpns: int) -> None:
        if self.ksampled is not None:
            self.ksampled.on_unmap(base_vpn, num_vpns)
        if self.kmigrated is not None:
            self.kmigrated.on_unmap(base_vpn, num_vpns)

    def on_demand_map(self, vpns: np.ndarray) -> None:
        self.ksampled.on_demand_map(vpns)

    # -- the daemons -------------------------------------------------------------------

    def on_batch(self, obs: BatchObservation) -> float:
        ks = self.ksampled
        num_samples = 0
        if obs.samples is not None and len(obs.samples):
            num_samples = len(obs.samples)
            ks.process_samples(obs.samples)
        ks.update_period(num_samples, obs.batch_wall_ns)

        if ks.adaptation_due():
            ks.adapt()
        if ks.cooling_due():
            ks.cool()
        if ks.estimation_due():
            ehr, rhr = ks.finish_estimation_window()
            self.kmigrated.consider_split(ehr, rhr)
        return 0.0  # never extends the critical path

    def on_tick(self, now_ns: float) -> None:
        self.kmigrated.tick(now_ns)

    # -- reporting ------------------------------------------------------------------------

    def stats(self) -> Dict[str, float]:
        """Set sizes, the base-page hot threshold and the sampling CPU
        share.  Thresholds, hit ratios and the adaptation, cooling,
        split and collapse counts are ``ksampled/*`` and ``kmigrated/*``
        registry values."""
        out = dict(self.ksampled.set_sizes())
        out["t_base_hot"] = float(self.ksampled.base_thresholds.hot)
        if self.ksampled.controller is not None:
            out["ksampled_cpu_mean"] = self.ksampled.controller.mean_usage
            out["ksampled_cpu_max"] = self.ksampled.controller.max_usage
        return out
