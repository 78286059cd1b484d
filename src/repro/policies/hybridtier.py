"""HybridTier-style sketch-based hotness tracking (arXiv:2312.04789).

Full per-page access histograms cost memory proportional to the managed
address space; HybridTier's answer is a **count-min sketch**: a small
fixed-size ``depth x width`` counter table.  Each sampled access
increments one counter per row (row-specific hash of the page number);
a page's estimated frequency is the *minimum* over its row counters.
The estimate never under-counts, and the whole tracker fits in a few
cache lines regardless of workload footprint.

Rows hash by multiply-shift with fixed odd 64-bit constants -- no RNG,
so runs are bit-reproducible and the sketch state is a plain numpy
array the generic policy checkpoint captures for free.

Aging halves every counter whenever any cell crosses a saturation bar,
the sketch analogue of HeMem's global cooling.

Preserved defect (inherent to count-min, acknowledged in the paper's
§4.2 accuracy analysis): hash **collisions only inflate** estimates.  A
cold page sharing all ``depth`` buckets with hot pages reads as hot and
gets promoted, evicting genuinely warm data; the smaller the sketch or
the bigger the footprint, the worse the false-positive promotion rate.
The deliberately small default width makes the effect visible at
simulation scale (``sketch_fill`` in stats tracks bucket pressure).
"""

from __future__ import annotations

from typing import Dict, Set

import numpy as np

from repro.mem.tiers import FASTEST_TIER
from repro.pebs.sampler import SamplerConfig
from repro.policies.base import BatchObservation, TieringPolicy, Traits

#: Fixed odd multipliers for multiply-shift hashing, one per sketch row
#: (split-mix style constants; any fixed odd value works, these just
#: decorrelate the rows).
_HASH_MULTIPLIERS = (
    0x9E3779B97F4A7C15,
    0xBF58476D1CE4E5B9,
    0x94D049BB133111EB,
    0xD6E8FEB86659FD93,
)


class HybridTierPolicy(TieringPolicy):
    """Count-min-sketch frequency tracking with static promote/demote bars."""

    name = "hybridtier"
    uses_pebs = True
    traits = Traits(
        mechanism="HW-based sampling",
        subpage_tracking=False,
        promotion_metric="sketched frequency",
        demotion_metric="sketched frequency",
        threshold_criteria="static access count",
        critical_path_migration="none",
        page_size_handling="none",
    )

    def __init__(
        self,
        width: int = 4096,
        depth: int = 4,
        hot_threshold: int = 4,
        saturation: int = 64,
        migrate_period_ns: float = 100e6,
        free_headroom: float = 0.02,
    ):
        super().__init__()
        if width & (width - 1):
            raise ValueError("sketch width must be a power of two")
        if not 1 <= depth <= len(_HASH_MULTIPLIERS):
            raise ValueError(f"depth must be in 1..{len(_HASH_MULTIPLIERS)}")
        self.width = width
        self.depth = depth
        self.hot_threshold = hot_threshold
        self.saturation = saturation
        self.migrate_period_ns = migrate_period_ns
        self.free_headroom = free_headroom
        self._shift = 64 - int(width).bit_length() + 1
        self._sketch = np.zeros((depth, width), dtype=np.int32)
        self._candidates: Set[int] = set()
        self._next_migrate_ns = 0.0
        self.promotions = 0
        self.demotions = 0
        self.decays = 0

    def sampler_config(self) -> SamplerConfig:
        return SamplerConfig(load_period=200, store_period=100_000)

    # -- sketch ----------------------------------------------------------------

    def _buckets(self, heads: np.ndarray) -> np.ndarray:
        """``(depth, n)`` bucket indices for page heads."""
        keys = heads.astype(np.uint64)
        rows = []
        for d in range(self.depth):
            mult = np.uint64(_HASH_MULTIPLIERS[d])
            rows.append((keys * mult) >> np.uint64(self._shift))
        return np.stack(rows).astype(np.int64)

    def _estimate(self, heads: np.ndarray) -> np.ndarray:
        """Count-min estimate (min over rows) for each head."""
        buckets = self._buckets(heads)
        est = self._sketch[0, buckets[0]]
        for d in range(1, self.depth):
            est = np.minimum(est, self._sketch[d, buckets[d]])
        return est

    # -- sample processing -----------------------------------------------------

    def on_batch(self, obs: BatchObservation) -> float:
        samples = obs.samples
        if samples is None or len(samples) == 0:
            return 0.0
        space = self.ctx.space
        heads = space.mapping_heads(samples.vpn)
        buckets = self._buckets(heads)
        for d in range(self.depth):
            np.add.at(self._sketch[d], buckets[d], 1)
        uniq = np.unique(heads)
        hot = uniq[self._estimate(uniq) >= self.hot_threshold]
        for vpn in hot.tolist():
            if space.page_tier[vpn] > FASTEST_TIER:
                self._candidates.add(int(vpn))
        if int(self._sketch.max()) >= self.saturation:
            self._sketch >>= 1
            self.decays += 1
        return 0.0

    # -- background migration --------------------------------------------------

    def on_tick(self, now_ns: float) -> None:
        if now_ns < self._next_migrate_ns:
            return
        self._next_migrate_ns = now_ns + self.migrate_period_ns
        space = self.ctx.space

        for vpn in sorted(self._candidates):
            if space.page_tier[vpn] <= FASTEST_TIER:
                continue
            if not self.promote_with_room(vpn, self._demote_cold):
                break
            self.promotions += 1
        self._candidates.clear()

        deficit = self.headroom_deficit(self.free_headroom)
        if deficit:
            self._demote_cold(deficit)

    def _demote_cold(self, nbytes_needed: int) -> None:
        """Demote fast pages with the lowest sketched estimates.

        Collisions bite here too: a cold page aliased with a hot one
        over-estimates and survives demotion rounds it should lose.
        """
        heads = self.fast_heads()
        order = np.argsort(self._estimate(heads), kind="stable")
        self.demotions += self.demote_in_order(heads[order], nbytes_needed)

    # -- bookkeeping -----------------------------------------------------------

    def on_unmap(self, base_vpn: int, num_vpns: int) -> None:
        # The sketch cannot forget individual pages (that is the point
        # of a sketch); stale counts age out through decay.  Only the
        # candidate queue is scrubbed.
        self._candidates = {
            v for v in self._candidates if not base_vpn <= v < base_vpn + num_vpns
        }

    def stats(self) -> Dict[str, float]:
        return {
            "promotions": float(self.promotions),
            "demotions": float(self.demotions),
            "decays": float(self.decays),
            "sketch_fill": float(np.count_nonzero(self._sketch))
            / float(self._sketch.size),
        }
