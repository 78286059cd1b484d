"""Workload event protocol and base class.

A workload is a generator of three event kinds:

* :class:`AllocEvent` -- create a named region (the engine places it via
  the policy's allocation preference and maps it, THP by default);
* :class:`FreeEvent` -- destroy a region (603.bwaves' short-lived
  allocations exercise this, §6.2.6);
* :class:`AccessEvent` -- a batch of page accesses, expressed as
  region-relative 4 KiB offsets so workloads stay independent of where
  the engine placed the region.

Workloads are deterministic given a seed: the engine passes one
``numpy.random.Generator`` into :meth:`Workload.events`.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Iterator, List, Tuple, Union

import numpy as np

from repro.pebs.events import AccessBatch


@dataclass(frozen=True)
class AllocEvent:
    """Allocate a region named ``key`` of ``nbytes`` (THP-mapped if set)."""

    key: str
    nbytes: int
    thp: bool = True


@dataclass(frozen=True)
class FreeEvent:
    """Free the region named ``key``."""

    key: str


@dataclass
class AccessEvent:
    """One batch of accesses, possibly spanning several regions.

    ``segments`` pairs a region key with region-relative accesses; the
    engine rebases each segment and concatenates.  With ``interleave``
    True the combined batch is shuffled, modelling threads touching the
    regions concurrently rather than one after another (matters to the
    TLB).
    """

    segments: List[Tuple[str, AccessBatch]]
    interleave: bool = False

    @classmethod
    def single(cls, key: str, batch: AccessBatch) -> "AccessEvent":
        return cls(segments=[(key, batch)])

    @property
    def num_accesses(self) -> int:
        return sum(len(batch) for _key, batch in self.segments)


WorkloadEvent = Union[AllocEvent, FreeEvent, AccessEvent]


class Workload(abc.ABC):
    """Base class for the synthetic benchmarks.

    Subclasses set the paper-reported characteristics (Table 2) as class
    attributes and implement :meth:`events`.
    """

    #: Registry name, e.g. "silo".
    name: str = "abstract"
    #: Paper Table 2: resident set size in GB.
    paper_rss_gb: float = 0.0
    #: Paper Table 2: ratio of huge pages allocated with THP (0..1).
    paper_rhp: float = 1.0
    #: One-line description (Table 2's right column).
    description: str = ""
    #: When True (safe default) the engine bounds-scans every access
    #: segment against its region before rebasing.  Workloads whose
    #: generators only emit offsets inside the regions they themselves
    #: sized set this False: the per-event ``vpn.max()`` scan is pure
    #: hot-path overhead then.  Recorded traces earn it at record time
    #: (``bounds_valid`` in the trace metadata).
    needs_bounds_check: bool = True
    #: When True the engine may run :meth:`events` on a helper thread,
    #: up to two events ahead of the event it simulates
    #: (:mod:`repro.workloads.prefetch`).  A stream that is cheaper to
    #: read than to hand between threads (a recorded trace) sets it
    #: False.
    prefetch_events: bool = True

    def __init__(self, total_bytes: int, total_accesses: int,
                 batch_size: int = 32_768):
        if total_bytes <= 0 or total_accesses <= 0:
            raise ValueError("total_bytes and total_accesses must be positive")
        self.total_bytes = int(total_bytes)
        self.total_accesses = int(total_accesses)
        self.batch_size = int(batch_size)

    @classmethod
    def from_scale(cls, scale, **kwargs) -> "Workload":
        """Instantiate at a :class:`repro.sim.machine.ScaleSpec` size."""
        return cls(
            total_bytes=scale.bytes_for(cls.paper_rss_gb),
            total_accesses=scale.accesses_for(cls.paper_rss_gb),
            **kwargs,
        )

    @abc.abstractmethod
    def events(self, rng: np.random.Generator) -> Iterator[WorkloadEvent]:
        """Yield the workload's event stream."""

    # -- helpers for subclasses -------------------------------------------------

    def _pages(self, nbytes: int) -> int:
        """4 KiB pages covering ``nbytes``."""
        return max(1, nbytes // 4096)

    def _mix_stores(self, n: int, store_fraction: float,
                    rng: np.random.Generator) -> np.ndarray:
        if store_fraction <= 0:
            return np.zeros(n, dtype=bool)
        return rng.random(n) < store_fraction
