"""Event coalescing: the engine's one batching loop.

The engine consumes the workload event stream through an
:class:`EventCoalescer`, which fuses consecutive access events into
one contiguous batch of at least ``target`` accesses (configured via
``RunSpec.macro_batch``), so every whole-array stage -- rebase, demand
mapping, cost accounting, TLB substream, sampling, policy observation
-- runs once per batch instead of once per workload event.

Semantics
---------
``macro_batch = 0`` (the default everywhere) runs the coalescer at
target 1: every workload event is its own engine batch, passed through
unchanged.  ``macro_batch = N > 0`` is a *different cadence*: the
policy observes fewer, larger batches, daemons tick once per batch of
virtual time, and interleaved events shuffle at fused granularity.
Results therefore legitimately differ between cadences, and
``macro_batch`` is part of the ``RunSpec`` cache identity.

Fusion follows the kernel mode (:func:`repro.kernels.active_mode`,
``REPRO_SCALAR_KERNELS``): the default and ``vectorized`` fuse a batch
with one grouped rebase (one concatenate of the parts, then an in-place
add of the base for each part whose region's base is not zero);
``scalar`` runs the per-segment reference loop (``rebased()`` per part
+ ``AccessBatch.concat``), kept as the executable specification;
``validate`` runs both on every batch and asserts identical arrays.
``tests/test_macro_batch.py`` enforces bit-identity between the modes
at both cadences under strict checks.

Epoch/snapshot/sanitizer boundaries are batch aligned: a fused batch
is processed by the very same ``_process_batch``, so ``_close_epoch``,
checkpointing and fault-injection timing fire at batch boundaries --
identically across kernel modes and through kill/resume.

The coalescer runs on the engine's thread, and so do the fusion and
interleave of each batch (:meth:`repro.sim.engine.Simulation._run_macro`),
once the batch before it has been simulated.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterator, Optional, Union

from repro.workloads.base import (
    AccessEvent,
    AllocEvent,
    FreeEvent,
    WorkloadEvent,
)

#: Default macro-batch size when a caller enables coalescing without a
#: size (CLI ``--macro-batch 0`` keeps one event per batch; benchmarks
#: and tests use this).  256k accesses measured fastest on the
#: trace-replay hot path -- large enough to amortise per-batch Python,
#: small enough that the per-access temporaries stay cache-friendly
#: (1M-access batches were ~35% slower end to end).
DEFAULT_MACRO_BATCH = 262_144


@dataclass
class CoalescedEvent:
    """One engine-facing item: a passthrough event or a fused batch.

    ``events_fused`` is the number of underlying workload events this
    item consumes -- the engine advances ``_events_consumed`` by it, so
    resume bookkeeping stays in workload-event units regardless of
    fusion.
    """

    event: WorkloadEvent
    events_fused: int = 1


class EventCoalescer:
    """Fuse consecutive access events into engine batches.

    Wraps a workload event iterator.  Access events accumulate until
    the pending group reaches ``target`` accesses -- at target 1 every
    access event, even an empty one, is its own item; alloc/free events
    are barriers (region bases may change across them), flushing the
    pending group before passing through.  A fused event concatenates
    the constituent segment lists in order -- per-access order within
    the batch is exactly the workload's order -- and is
    interleaved if any constituent was.

    Fusion boundaries are a pure function of the event stream from the
    coalescer's start position, which makes them deterministic across
    checkpoint/resume: the engine only checkpoints between coalesced
    items, so a resumed coalescer starting after the last consumed
    workload event reproduces the original boundaries.

    Wall time spent waiting for the next event of the underlying
    stream is accumulated into ``phase_ns["gen_ns"]`` when a phase dict
    is given: the time to generate it, or, for a stream generated ahead
    on a helper thread (:mod:`repro.workloads.prefetch`), only the time
    the engine waited for the helper.
    """

    def __init__(self, events: Iterator[WorkloadEvent], target: int,
                 phase_ns: Optional[dict] = None):
        if target <= 0:
            raise ValueError(f"macro-batch target must be > 0, got {target}")
        self._events = events
        self.target = int(target)
        self._phase_ns = phase_ns

    def _pull(self) -> Union[WorkloadEvent, None]:
        if self._phase_ns is None:
            return next(self._events, None)
        t0 = time.perf_counter_ns()
        event = next(self._events, None)
        self._phase_ns["gen_ns"] += time.perf_counter_ns() - t0
        return event

    @staticmethod
    def _fuse(pending) -> CoalescedEvent:
        if len(pending) == 1:
            return CoalescedEvent(pending[0], 1)
        segments = [seg for event in pending for seg in event.segments]
        interleave = any(event.interleave for event in pending)
        return CoalescedEvent(
            AccessEvent(segments, interleave=interleave), len(pending)
        )

    def __iter__(self) -> Iterator[CoalescedEvent]:
        # Target 1 never holds an event back: an empty access event would
        # otherwise be fused into the next one and lend it its
        # interleave flag.
        alone = self.target == 1
        pending = []
        pending_accesses = 0
        while True:
            event = self._pull()
            if event is None:
                break
            if isinstance(event, AccessEvent):
                pending.append(event)
                pending_accesses += event.num_accesses
                if alone or pending_accesses >= self.target:
                    yield self._fuse(pending)
                    pending = []
                    pending_accesses = 0
            elif isinstance(event, (AllocEvent, FreeEvent)):
                if pending:
                    yield self._fuse(pending)
                    pending = []
                    pending_accesses = 0
                yield CoalescedEvent(event, 1)
            else:
                raise TypeError(f"unknown workload event {event!r}")
        if pending:
            yield self._fuse(pending)
