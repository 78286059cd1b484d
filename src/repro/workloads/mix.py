"""Workload co-location: interleave several benchmarks over shared tiers.

Tiered-memory managers are system-wide: the warehouse-scale context the
paper discusses in §8 runs many applications against one DRAM pool.
:class:`MixWorkload` interleaves the event streams of several member
workloads (round-robin, weighted by their access counts) into a single
stream over one shared address space, so any policy can be evaluated on
a co-located scenario:

    mix = MixWorkload([make_workload("silo", scale),
                       make_workload("liblinear", scale)])
    Simulation(mix, MemtisPolicy(), machine).run()

The workload name ``silo+liblinear`` builds the same mix, so
``RunSpec("silo+liblinear", "memtis")`` runs it as any other cell.

Region keys are namespaced per member (``0:store``, ``1:features``) so
members cannot collide.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence

import numpy as np

from repro.workloads.base import (
    AccessEvent,
    AllocEvent,
    FreeEvent,
    Workload,
    WorkloadEvent,
)


def _namespace(event: WorkloadEvent, prefix: str) -> WorkloadEvent:
    if isinstance(event, AllocEvent):
        return AllocEvent(f"{prefix}:{event.key}", event.nbytes, event.thp)
    if isinstance(event, FreeEvent):
        return FreeEvent(f"{prefix}:{event.key}")
    if isinstance(event, AccessEvent):
        return AccessEvent(
            [(f"{prefix}:{key}", batch) for key, batch in event.segments],
            interleave=event.interleave,
        )
    raise TypeError(f"unknown event {event!r}")


class MixWorkload(Workload):
    """Round-robin interleaving of several member workloads.

    Each scheduling turn drains one member's events up to (and
    including) its next access event, then moves to the next member, so
    allocation ordering and phase structure inside each member are
    preserved while their access streams interleave at batch
    granularity.  A member that finishes early simply drops out; the mix
    ends when every member is exhausted.
    """

    name = "mix"
    paper_rss_gb = 0.0

    def __init__(self, members: Sequence[Workload],
                 weights: Optional[Sequence[int]] = None):
        if not members:
            raise ValueError("need at least one member workload")
        self.members = list(members)
        if weights is None:
            weights = [1] * len(self.members)
        if len(weights) != len(self.members) or any(w <= 0 for w in weights):
            raise ValueError("weights must be positive, one per member")
        self.weights = list(weights)
        super().__init__(
            total_bytes=sum(m.total_bytes for m in self.members),
            total_accesses=sum(m.total_accesses for m in self.members),
        )
        self.name = "mix(" + "+".join(m.name for m in self.members) + ")"

    def events(self, rng: np.random.Generator) -> Iterator[WorkloadEvent]:
        # Independent deterministic streams per member.
        streams = [
            m.events(np.random.default_rng(rng.integers(0, 2**63)))
            for m in self.members
        ]
        live = list(range(len(streams)))

        def next_turn(idx: int) -> List[WorkloadEvent]:
            """Events up to and including the member's next access."""
            out: List[WorkloadEvent] = []
            for event in streams[idx]:
                out.append(_namespace(event, str(idx)))
                if isinstance(event, AccessEvent):
                    return out
            live.remove(idx)  # exhausted
            return out

        while live:
            for idx in list(live):
                for _ in range(self.weights[idx]):
                    if idx not in live:
                        break
                    yield from next_turn(idx)
