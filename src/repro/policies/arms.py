"""ARMS: adaptive and robust memory tiering (arXiv:2508.04417).

Two claims give the system its name:

* **Adaptive.**  Instead of a fixed hotness bar, the promotion
  threshold is re-derived each window from the sampled count
  distribution so the classified hot set tracks the fast tier's
  capacity (the same capacity-coupling MEMTIS gets from its histogram,
  computed here directly from per-page counts).
* **Robust.**  A coarse spatial histogram of each sampling window is
  compared against the previous window's via total-variation distance.
  A large drift means the workload changed phase: the stale hotness
  state is aggressively aged (quartered, queue dropped) so the new
  phase's hot set is not fought by the old one's accumulated counts.
  Promotion also requires a minimum repeat count, filtering one-shot
  streaming accesses that a single-sample bar would promote.

Preserved defect (the paper's §7 limitation): the drift detector cannot
tell *phase change* from *burstiness*.  A stationary workload with a
bursty access pattern (or a sampling window that lands on a short
burst) trips the total-variation bar, triggering a **false-positive
reset** that throws away genuine hotness state and re-learns it from
scratch -- ``phase_resets`` climbing on a stationary workload is the
defect in action.
"""

from __future__ import annotations

from typing import Dict, Set

import numpy as np

from repro.mem.pages import BASE_PAGE_SIZE, HUGE_PAGE_SIZE
from repro.mem.tiers import FASTEST_TIER
from repro.pebs.sampler import SamplerConfig
from repro.policies.base import BatchObservation, PolicyContext, TieringPolicy, Traits


class ARMSPolicy(TieringPolicy):
    """Capacity-coupled thresholds + drift-triggered state resets."""

    name = "arms"
    uses_pebs = True
    traits = Traits(
        mechanism="HW-based sampling",
        subpage_tracking=False,
        promotion_metric="frequency vs capacity threshold",
        demotion_metric="frequency vs capacity threshold",
        threshold_criteria="adaptive (capacity + drift)",
        critical_path_migration="none",
        page_size_handling="none",
    )

    #: Coarse spatial buckets for the per-window access distribution.
    DRIFT_BUCKETS = 64

    def __init__(
        self,
        min_repeat: int = 2,
        drift_threshold: float = 0.5,
        window_samples: int = 2048,
        cooling_threshold: int = 32,
        migrate_period_ns: float = 100e6,
        free_headroom: float = 0.02,
    ):
        super().__init__()
        self.min_repeat = min_repeat
        self.drift_threshold = drift_threshold
        self.window_samples = window_samples
        self.cooling_threshold = cooling_threshold
        self.migrate_period_ns = migrate_period_ns
        self.free_headroom = free_headroom
        self._count = None
        self._window_hist = np.zeros(self.DRIFT_BUCKETS, dtype=np.int64)
        self._window_seen = 0
        self._prev_dist = None
        self._hot_threshold = min_repeat
        self._candidates: Set[int] = set()
        self._next_migrate_ns = 0.0
        self.phase_resets = 0
        self.last_drift = 0.0
        self.promotions = 0
        self.demotions = 0
        self.coolings = 0

    def sampler_config(self) -> SamplerConfig:
        return SamplerConfig(load_period=200, store_period=100_000)

    def bind(self, ctx: PolicyContext) -> None:
        super().bind(ctx)
        self._count = np.zeros(ctx.space.num_vpns, dtype=np.int32)

    # -- drift detection -------------------------------------------------------

    def _close_window(self) -> None:
        total = int(self._window_hist.sum())
        if total > 0:
            dist = self._window_hist / total
            if self._prev_dist is not None:
                # Total-variation distance between consecutive windows'
                # spatial access distributions, in [0, 1].
                drift = 0.5 * float(np.abs(dist - self._prev_dist).sum())
                self.last_drift = drift
                if drift > self.drift_threshold:
                    # Phase change (or a burst that looks like one --
                    # the false-positive defect): age hard and restart
                    # classification from the new window.
                    self._count >>= 2
                    self._candidates.clear()
                    self.phase_resets += 1
            self._prev_dist = dist
        self._window_hist = np.zeros(self.DRIFT_BUCKETS, dtype=np.int64)
        self._window_seen = 0

    def _refresh_threshold(self) -> None:
        """Pick the count bar whose hot set just fits the fast tier."""
        space = self.ctx.space
        mapped = np.flatnonzero(space.page_tier >= 0)
        if len(mapped) == 0:
            self._hot_threshold = self.min_repeat
            return
        heads = np.unique(space.mapping_heads(mapped))
        counts = self._count[heads]
        sizes = np.where(
            space.page_huge[heads], HUGE_PAGE_SIZE, BASE_PAGE_SIZE
        ).astype(np.int64)
        order = np.argsort(-counts, kind="stable")
        cum = np.cumsum(sizes[order])
        capacity = self.ctx.tiers.fast.capacity_bytes
        n_fit = int(np.searchsorted(cum, capacity, side="right"))
        if n_fit == 0 or n_fit >= len(heads):
            self._hot_threshold = self.min_repeat
            return
        # The last page that fits sets the bar; robustness keeps it at
        # least min_repeat so single samples never qualify.
        self._hot_threshold = max(int(counts[order[n_fit - 1]]), self.min_repeat)

    # -- sample processing -----------------------------------------------------

    def on_batch(self, obs: BatchObservation) -> float:
        samples = obs.samples
        if samples is None or len(samples) == 0:
            return 0.0
        space = self.ctx.space
        vpns = samples.vpn
        heads = space.mapping_heads(vpns)
        np.add.at(self._count, heads, 1)
        buckets = (
            vpns.astype(np.int64) * self.DRIFT_BUCKETS // space.num_vpns
        )
        np.add.at(self._window_hist, buckets, 1)
        self._window_seen += len(vpns)
        if self._window_seen >= self.window_samples:
            self._close_window()
        hot = heads[self._count[heads] >= self._hot_threshold]
        for vpn in np.unique(hot).tolist():
            if space.page_tier[vpn] > FASTEST_TIER:
                self._candidates.add(int(vpn))
        if len(heads) and int(self._count[heads].max()) >= self.cooling_threshold:
            self._count >>= 1
            self.coolings += 1
        return 0.0

    # -- background migration --------------------------------------------------

    def on_tick(self, now_ns: float) -> None:
        if now_ns < self._next_migrate_ns:
            return
        self._next_migrate_ns = now_ns + self.migrate_period_ns
        self._refresh_threshold()
        space = self.ctx.space

        for vpn in sorted(self._candidates):
            if space.page_tier[vpn] <= FASTEST_TIER:
                continue
            if self._count[vpn] < self._hot_threshold:
                continue  # threshold moved since enqueue
            if not self.promote_with_room(vpn, self._demote_cold):
                break
            self.promotions += 1
        self._candidates.clear()

        deficit = self.headroom_deficit(self.free_headroom)
        if deficit:
            self._demote_cold(deficit)

    def _demote_cold(self, nbytes_needed: int) -> None:
        heads = self.fast_heads()
        cold = heads[self._count[heads] < self._hot_threshold]
        order = np.argsort(self._count[cold], kind="stable")
        self.demotions += self.demote_in_order(cold[order], nbytes_needed)

    # -- bookkeeping -----------------------------------------------------------

    def on_unmap(self, base_vpn: int, num_vpns: int) -> None:
        if self._count is not None:
            self._count[base_vpn : base_vpn + num_vpns] = 0
        self._candidates = {
            v for v in self._candidates if not base_vpn <= v < base_vpn + num_vpns
        }

    def stats(self) -> Dict[str, float]:
        return {
            "promotions": float(self.promotions),
            "demotions": float(self.demotions),
            "phase_resets": float(self.phase_resets),
            "last_drift": float(self.last_drift),
            "hot_threshold": float(self._hot_threshold),
            "coolings": float(self.coolings),
        }
