"""Runtime cost model: what one simulated nanosecond means.

``runtime = (compute + memory + translation + fault/critical-path work)
x contention``.  Components:

* **compute**: fixed per-access CPU work representing the non-memory
  instructions between misses; keeps tier-latency gains in a realistic
  relative range instead of letting memory latency be 100% of runtime.
* **memory**: per-access tier latency (load/store tables), divided by a
  memory-level-parallelism factor -- out-of-order cores overlap misses,
  so effective stall time is a fraction of raw latency.  MLP scales all
  configurations equally and cancels in the paper-style normalised
  results.
* **translation**: page-walk levels charged on TLB misses (per-level
  memory reference cost), computed exactly on the TLB substream and
  scaled by the stride.
* **fault**: minor/hint-fault entry cost plus any critical-path
  migration latency a fault-driven policy incurs (§2.2 "migrate pages
  in the page fault handler, adding non-negligible latency").
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.mem.migration import MigrationCostParams
from repro.mem.tiers import TieredMemory


@dataclass
class CostModel:
    """Cost constants plus the per-run latency tables."""

    compute_ns_per_access: float = 20.0
    mlp_factor: float = 2.0
    walk_level_ns: float = 25.0
    hint_fault_ns: float = 1_800.0
    migration: MigrationCostParams = field(default_factory=MigrationCostParams)

    def bind(self, tiers: TieredMemory) -> "BoundCostModel":
        return BoundCostModel(self, tiers)


class BoundCostModel:
    """Cost model specialised to a tier stack (latency tables baked)."""

    def __init__(self, model: CostModel, tiers: TieredMemory):
        self.model = model
        self.tiers = tiers
        self.load_table = tiers.load_latency_table() / model.mlp_factor
        self.store_table = tiers.store_latency_table() / model.mlp_factor
        # The same latencies as Python floats: indexing the arrays per
        # batch built a numpy scalar per tier and kind.
        self._load_ns = self.load_table.tolist()
        self._store_ns = self.store_table.tolist()
        #: Accesses the last :meth:`memory_ns` call counted in the
        #: fastest tier (the engine's fast hits for that batch).
        self.fast_accesses = 0

    def memory_ns(self, tier_per_access: np.ndarray, is_store: np.ndarray) -> float:
        """Stall time of one batch given per-access tier indices.

        Every access falls in one of ``2N`` (tier, kind) categories, so
        the batch total is integer per-tier load/store counts times the
        baked latencies -- no per-access gather/where/sum temporaries.
        Each tier but the slowest costs one compare and two
        ``count_nonzero`` passes over byte arrays; the slowest tier gets
        what is left.  (A ``bincount`` would first widen its input to
        8-byte indices: a fresh buffer per batch that cost more than all
        the counting.)  The per-tier components are summed
        fastest-first, which for two tiers reproduces the historical
        ``(fast + capacity)`` float addition order exactly.  The
        fastest tier's count is left in :attr:`fast_accesses`.
        """
        num_tiers = len(self.tiers)
        stores_left = int(np.count_nonzero(is_store))
        loads_left = len(tier_per_access) - stores_left
        counts = []  # (loads, stores) per tier
        for i in range(num_tiers - 1):
            in_tier = tier_per_access == i
            n_i = int(np.count_nonzero(in_tier))
            in_tier &= is_store
            n_store_i = int(np.count_nonzero(in_tier))
            counts.append((n_i - n_store_i, n_store_i))
            loads_left -= n_i - n_store_i
            stores_left -= n_store_i
        counts.append((loads_left, stores_left))
        self.fast_accesses = sum(counts[0])
        components = [
            n_load * load_ns + n_store * store_ns
            for (n_load, n_store), load_ns, store_ns
            in zip(counts, self._load_ns, self._store_ns)
        ]
        total = components[0]
        for comp in components[1:]:
            total = total + comp
        return total

    def compute_ns(self, num_accesses: int) -> float:
        return num_accesses * self.model.compute_ns_per_access

    def walk_ns(self, walk_levels: int, stride: int) -> float:
        """Translation stall for ``walk_levels`` observed at ``stride``."""
        return walk_levels * self.model.walk_level_ns * stride / self.model.mlp_factor

    def fault_ns(self, num_faults: int) -> float:
        return num_faults * self.model.hint_fault_ns
