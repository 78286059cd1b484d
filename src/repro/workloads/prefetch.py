"""Generate a workload's events ahead of the engine, on a second core.

A generated workload's next events (Zipf draws, mixture passes, offset
arithmetic) depend on nothing the engine is simulating.
:func:`open_stream` runs such a stream on one helper thread named
``repro-events`` (:class:`RunAhead`) while the engine works on the
event before: one event waits in a one-slot queue and the helper
produces the next, so the helper is never more than two events ahead.
numpy releases the interpreter lock in the bulk draws, sorts and
ufuncs that dominate generation, which is what lets it overlap with
the engine.  The engine receives the very event objects the generator
yielded, in the order it yielded them, so a prefetched run is
bit-identical to a direct one: the stream's RNG is touched only by the
generator, and no generator reuses an array across yields.

An exception the source raises reaches the consumer after every item
produced before it, and only when the consumer asks for the item it
replaced.  :meth:`RunAhead.close` waits for the item in flight, closes
the source on the helper thread (a generator cannot be closed while it
runs on another) and joins the thread, so none outlives the run -- the
sweep and service supervisors fork.  A helper starts only where this
process has a second CPU to itself (:func:`spare_core`).
"""

from __future__ import annotations

import os
import queue
import threading
from types import GeneratorType
from typing import Iterator

import numpy as np

#: Name of the event helper thread (the test suite checks none
#: outlives a test).
THREAD_NAME = "repro-events"

_END = object()


class _Raised:
    """The exception the source raised, queued after its last item."""

    __slots__ = ("error",)

    def __init__(self, error: BaseException):
        self.error = error


#: Processes sharing this one's CPUs (:func:`share_cpus`).  Like the
#: affinity mask it refines, it describes the whole process: a worker
#: sets it once, in its entry point.
_sharers = 1


def usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        return os.cpu_count() or 1


def share_cpus(processes: int) -> None:
    """Note that ``processes`` busy processes, this one included, share
    the CPUs this process may use.  The supervisor's workers call it
    with their count: a helper thread then starts only where each
    process's share is two CPUs or more, so ``N`` workers never keep
    ``2N`` threads busy on fewer CPUs."""
    global _sharers
    _sharers = max(1, processes)


def spare_core() -> bool:
    """True when this process's share of the CPUs (:func:`share_cpus`)
    is two or more: a helper thread then has a core of its own."""
    return usable_cpus() // _sharers > 1


class RunAhead:
    """Iterates ``source`` on a helper thread named ``name``, at most
    two items ahead of the consumer."""

    def __init__(self, source: Iterator, name: str = THREAD_NAME):
        self._queue: queue.Queue = queue.Queue(maxsize=1)
        self._closing = threading.Event()
        self._done = False
        self._thread = threading.Thread(
            target=self._pull, args=(source,), name=name, daemon=True
        )
        self._thread.start()

    def _pull(self, source: Iterator) -> None:
        put = self._queue.put
        try:
            for item in source:
                put(item)
                if self._closing.is_set():
                    return
            put(_END)
        except BaseException as exc:
            put(_Raised(exc))
        finally:
            close_stream(source)

    def __iter__(self) -> "RunAhead":
        return self

    def __next__(self):
        if self._done:
            raise StopIteration
        item = self._queue.get()
        if item is _END:
            self._done = True
            raise StopIteration
        if isinstance(item, _Raised):
            self._done = True
            raise item.error
        return item

    def close(self) -> None:
        """Stop the helper and join it (idempotent).

        After ``_closing`` is set the helper puts at most one more item
        before it stops, so emptying the one slot once is enough to
        release a helper blocked on a full queue.
        """
        if self._thread is None:
            return
        self._closing.set()
        try:
            self._queue.get_nowait()
        except queue.Empty:
            pass
        self._thread.join()
        self._thread = None
        self._done = True


def open_stream(workload, rng: np.random.Generator) -> Iterator:
    """``workload.events(rng)``, generated ahead on a helper thread when
    the workload allows it (``prefetch_events``), the stream is a
    generator, and this process's share of the CPUs (:func:`share_cpus`)
    is more than one.  Pass the result to :func:`close_stream` on every
    exit.

    Only a generator runs ahead: its state is its own frame, and its
    ``close`` can run on the helper.  Any other iterator is iterated by
    the caller, since it may do work bound to the calling thread -- the
    benchmark's layer tracer wraps ``events`` in one that records a span
    per ``next`` on a stack shared with the engine's spans.
    """
    events = workload.events(rng)
    if (workload.prefetch_events and isinstance(events, GeneratorType)
            and spare_core()):
        return RunAhead(events)
    return events


def close_stream(events: Iterator) -> None:
    """Close an event stream if it can be closed (generators and
    :class:`RunAhead` streams can; a plain iterator is left to the
    garbage collector)."""
    close = getattr(events, "close", None)
    if close is not None:
        close()
