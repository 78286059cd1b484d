"""Memory tiers: specifications, capacity accounting, and the tier stack.

The paper evaluates two-tier layouts (§6.1, §6.4) -- DRAM + Optane NVM
(load ~300 ns) and DRAM + emulated CXL (load 177 ns) -- but the machine
model here is N-tier: a machine is an **ordered list of tiers**, index 0
the fastest, each with its own latency/bandwidth/capacity (HM-Keeper
manages DRAM + CXL + NVM + remote simultaneously; Nomad migrates along a
tier chain).  The paper's two-tier configurations are the special case
``N == 2``.

Tier identity is a plain integer index into the machine's tier list
(:data:`FASTEST_TIER` is 0); neighbours are addressed with
:meth:`TieredMemory.promote_target` / :meth:`TieredMemory.demote_target`.

We model a tier as a latency/bandwidth specification plus a
capacity-bounded byte allocator.  Individual frame numbers are not
tracked -- placement cost in the simulator depends only on *which tier*
backs a page -- but allocation and free are strict: a tier never goes
over capacity, and double-frees are detected.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, List, Optional, Sequence


#: Index of the fastest tier in every machine.
FASTEST_TIER = 0

#: Sentinel tier value in vectorised per-page arrays for unmapped pages.
TIER_UNMAPPED = -1

#: Canonical label for the unmapped sentinel in exports/error messages.
UNMAPPED_LABEL = "unmapped"


def tier_label(index: int, tiers: Optional["TieredMemory"] = None) -> str:
    """Human-readable name for a tier index in exports and errors.

    ``TIER_UNMAPPED`` always renders as ``"unmapped"`` -- the raw ``-1``
    must never leak into results or findings.  With a ``tiers`` stack the
    tier's spec name is used (``"DRAM"``); without one, ``"tier<i>"``.
    """
    index = int(index)
    if index == TIER_UNMAPPED:
        return UNMAPPED_LABEL
    if tiers is not None and 0 <= index < len(tiers):
        return tiers[index].spec.name
    return f"tier{index}"


@dataclass(frozen=True)
class TierSpec:
    """Performance/capacity specification of one memory tier.

    Latencies follow the paper's hardware (§6.1/§6.4): local DRAM load
    ~80 ns, Optane NVM load ~300 ns, emulated CXL load ~177 ns.  Store
    latencies are modestly higher on NVM (write asymmetry).
    """

    name: str
    capacity_bytes: int
    load_latency_ns: float
    store_latency_ns: float
    bandwidth_gbps: float = 100.0

    def __post_init__(self):
        if self.capacity_bytes <= 0:
            raise ValueError(f"{self.name}: capacity must be positive")
        if self.load_latency_ns <= 0 or self.store_latency_ns <= 0:
            raise ValueError(f"{self.name}: latencies must be positive")


def dram_spec(capacity_bytes: int) -> TierSpec:
    """Local-DRAM fast tier (DDR4 on the paper's Xeon Gold 5218R)."""
    return TierSpec("DRAM", capacity_bytes, load_latency_ns=80.0,
                    store_latency_ns=80.0, bandwidth_gbps=100.0)


def nvm_spec(capacity_bytes: int) -> TierSpec:
    """Optane DCPMM capacity tier (load ~300 ns per §6.1)."""
    return TierSpec("NVM", capacity_bytes, load_latency_ns=300.0,
                    store_latency_ns=400.0, bandwidth_gbps=15.0)


def cxl_spec(capacity_bytes: int) -> TierSpec:
    """Emulated directly-attached CXL memory (load ~177 ns per §6.4)."""
    return TierSpec("CXL", capacity_bytes, load_latency_ns=177.0,
                    store_latency_ns=187.0, bandwidth_gbps=60.0)


def remote_spec(capacity_bytes: int) -> TierSpec:
    """Disaggregated/remote memory tier (RDMA-class, single-digit us)."""
    return TierSpec("Remote", capacity_bytes, load_latency_ns=1_500.0,
                    store_latency_ns=1_600.0, bandwidth_gbps=8.0)


CAPACITY_SPECS = {"nvm": nvm_spec, "cxl": cxl_spec, "dram": dram_spec}

#: Every known tier technology, keyed by kind name (N-tier machines).
TIER_SPECS = {
    "dram": dram_spec,
    "nvm": nvm_spec,
    "cxl": cxl_spec,
    "remote": remote_spec,
}


class OutOfMemoryError(RuntimeError):
    """Raised when an allocation cannot be satisfied by any tier."""


@dataclass
class MemoryTier:
    """One tier with strict byte accounting."""

    index: int
    spec: TierSpec
    used_bytes: int = 0
    #: Optional fault-injection gate (see ``repro.check.faults``).  When
    #: it fires, the tier *advertises* no available bytes without
    #: changing real accounting -- admission checks fail, committed
    #: ``alloc()`` calls still succeed, so check-then-act callers stay
    #: consistent through an outage.
    fault_gate: Optional[Callable[[], bool]] = field(
        default=None, repr=False, compare=False)

    #: Live wiring the checkpoint walk leaves out (``repro.snapshot``).
    _CHECKPOINT_EXCLUDE = frozenset({"fault_gate"})

    def __post_init__(self):
        self.index = int(self.index)

    @property
    def capacity_bytes(self) -> int:
        return self.spec.capacity_bytes

    @property
    def free_bytes(self) -> int:
        return self.spec.capacity_bytes - self.used_bytes

    @property
    def avail_bytes(self) -> int:
        """Bytes admission control may promise right now.

        Equal to :attr:`free_bytes` except during an injected
        allocation outage, when it drops to zero.  Placement decisions
        (demand paging, promotion, split budgets, collapse admission)
        must consult this, not ``free_bytes``.
        """
        if self.fault_gate is not None and self.fault_gate():
            return 0
        return self.free_bytes

    @property
    def utilization(self) -> float:
        return self.used_bytes / self.spec.capacity_bytes

    def can_alloc(self, nbytes: int) -> bool:
        return nbytes <= self.avail_bytes

    def alloc(self, nbytes: int) -> None:
        if nbytes < 0:
            raise ValueError("allocation size must be non-negative")
        if nbytes > self.free_bytes:
            raise OutOfMemoryError(
                f"{self.spec.name}: need {nbytes} bytes, "
                f"only {self.free_bytes} free of {self.capacity_bytes}"
            )
        self.used_bytes += nbytes

    def free(self, nbytes: int) -> None:
        if nbytes < 0:
            raise ValueError("free size must be non-negative")
        if nbytes > self.used_bytes:
            raise ValueError(
                f"{self.spec.name}: freeing {nbytes} bytes but only "
                f"{self.used_bytes} in use (double free?)"
            )
        self.used_bytes -= nbytes



class TieredMemory:
    """The ordered tier stack of one machine (index 0 = fastest).

    Provides latency lookup tables indexed by tier index for vectorised
    cost accounting, neighbor addressing for promotion/demotion targets,
    and small helpers policies use to reason about headroom.  Build it
    from the tier list: ``TieredMemory([t0, t1, t2])``.
    """

    def __init__(self, tiers: Sequence[MemoryTier]):
        self.tiers: List[MemoryTier] = list(tiers)
        if not self.tiers:
            raise ValueError("a machine needs at least one tier")
        for i, tier in enumerate(self.tiers):
            if int(tier.index) != i:
                raise ValueError(
                    f"tier {tier.spec.name}: index {tier.index} does not "
                    f"match its position {i} in the stack"
                )

    @classmethod
    def build(cls, *specs: TierSpec) -> "TieredMemory":
        """Build a stack from :class:`TierSpec`s, fastest first."""
        return cls([MemoryTier(i, spec) for i, spec in enumerate(specs)])

    # -- indexing -----------------------------------------------------------

    def tier(self, index: int) -> MemoryTier:
        return self.tiers[int(index)]

    def __getitem__(self, index: int) -> MemoryTier:
        return self.tiers[int(index)]

    def __len__(self) -> int:
        return len(self.tiers)

    def __iter__(self) -> Iterator[MemoryTier]:
        return iter(self.tiers)

    @property
    def num_tiers(self) -> int:
        return len(self.tiers)

    @property
    def fast(self) -> MemoryTier:
        """The fastest tier (index 0)."""
        return self.tiers[FASTEST_TIER]

    @property
    def slowest(self) -> MemoryTier:
        return self.tiers[-1]

    @property
    def slowest_index(self) -> int:
        return len(self.tiers) - 1

    # -- neighbor addressing ------------------------------------------------

    def promote_target(self, index: int) -> Optional[int]:
        """Tier one step faster than ``index`` (None at the top)."""
        index = int(index)
        if not 0 <= index < len(self.tiers):
            raise IndexError(f"tier index {index} out of range")
        return index - 1 if index > FASTEST_TIER else None

    def demote_target(self, index: int) -> Optional[int]:
        """Tier one step slower than ``index`` (None at the bottom)."""
        index = int(index)
        if not 0 <= index < len(self.tiers):
            raise IndexError(f"tier index {index} out of range")
        return index + 1 if index < len(self.tiers) - 1 else None

    def fallback_order(self, preferred: int) -> List[int]:
        """Allocation fallback: preferred, then slower tiers, then faster.

        Generalises the old binary node fallback: a fast-first request
        spills downward (Linux local-node-first), a slow-first request
        tries the remaining slower tiers before climbing upward.
        """
        preferred = int(preferred)
        if not 0 <= preferred < len(self.tiers):
            raise IndexError(f"tier index {preferred} out of range")
        down = list(range(preferred + 1, len(self.tiers)))
        up = list(range(preferred - 1, -1, -1))
        return [preferred] + down + up

    # -- latency helpers ----------------------------------------------------

    @property
    def latency_gap(self) -> float:
        """``AL = L_slowest - L_fast`` used in the split-count equation (Eq. 2)."""
        return (self.tiers[-1].spec.load_latency_ns
                - self.tiers[0].spec.load_latency_ns)

    def load_latency_table(self):
        """Array ``lat[tier_index] -> load ns`` for vectorised gather."""
        import numpy as np

        return np.array(
            [t.spec.load_latency_ns for t in self.tiers], dtype=np.float64
        )

    def store_latency_table(self):
        import numpy as np

        return np.array(
            [t.spec.store_latency_ns for t in self.tiers], dtype=np.float64
        )

    # -- aggregates ---------------------------------------------------------

    def total_used(self) -> int:
        return sum(t.used_bytes for t in self.tiers)

    def total_capacity_bytes(self) -> int:
        return sum(t.capacity_bytes for t in self.tiers)

    def label(self, index: int) -> str:
        """Name for a tier index (``"unmapped"`` for the sentinel)."""
        return tier_label(index, self)

