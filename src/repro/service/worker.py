"""Pull-based worker: claim, execute, stream, complete.

A worker is a plain loop over :meth:`JobQueue.claim`; any number of them
can share one directory with no coordination beyond the queue database.
The same loop drains a service directory (``repro service start``) and
the queue behind every :func:`~repro.sim.sweep.run_sweep`.  Per job:

1. **Recover first.**  If the result cache already holds the job's
   result, a previous owner died between its cache commit and the
   queue transition -- complete the job from the cache without running
   anything (this is the exactly-once recovery path).
2. **Resume where possible.**  A job being *continued* (``claims > 1``
   after a lease expiry, or ``attempts > 0`` after a raise) runs the
   :func:`~repro.sim.sweep.resume_variant`, restoring the last epoch
   checkpoint instead of recomputing finished epochs.
3. **Execute through the one cell path.**
   :func:`~repro.sim.sweep.execute_cell` runs the spec, streaming
   per-epoch progress records into the directory's ``hb/``; an extra
   epoch hook renews the queue lease (throttled to a third of the lease
   period) and raises :class:`LeaseLost` if the lease was usurped -- the
   worker abandons the cell and the new owner's run stands alone.
4. **Commit.**  ``cache.put`` *then* ``queue.complete`` -- the cache
   write is the commit point (see the crash matrix in
   :mod:`repro.service.queue`).  Failures go to ``queue.fail``; the
   queue row is the cell's only state.

``drain=True`` makes the loop exit once the queue holds no live jobs --
the mode ``run_sweep``, the CLI, the smoke script and CI use; without it
the worker idles waiting for more submissions.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional

from repro.obs.heartbeat import HeartbeatConfig
from repro.service.queue import (
    JobQueue,
    Job,
    heartbeat_dir,
    new_worker_id,
    queue_path,
)
from repro.sim import cache as result_cache
from repro.sim import sweep

#: Default claim lease.  Far above any epoch duration at test scales, so
#: live workers renew long before expiry; small enough that a killed
#: worker's job re-queues promptly.
DEFAULT_LEASE_S = 30.0


class LeaseLost(Exception):
    """Raised mid-run when the queue reports our lease was usurped."""


@dataclass
class WorkerStats:
    executed: int = 0       #: cells run to completion by this worker
    recovered: int = 0      #: completed straight from the cache (step 1)
    resumed: int = 0        #: continuation runs (resume variant executed)
    failures: int = 0       #: executions that raised (fail() recorded)
    lost_leases: int = 0    #: cells abandoned after a usurped lease


class Worker:
    """One pull-based worker bound to a service directory."""

    def __init__(self, directory: str, worker_id: Optional[str] = None,
                 lease_s: float = DEFAULT_LEASE_S, poll_s: float = 1.0,
                 drain: bool = False, cache=result_cache.DEFAULT,
                 heartbeat=result_cache.DEFAULT,
                 trace: Optional["sweep.TraceConfig"] = None):
        self.directory = directory
        self.worker_id = worker_id or new_worker_id()
        self.lease_s = float(lease_s)
        self.poll_s = float(poll_s)
        self.drain = bool(drain)
        self.cache = result_cache.resolve_cache(cache)
        self.stats = WorkerStats()
        #: Progress records go to ``<directory>/hb`` by default, where a
        #: config (e.g. with another write interval) says, or nowhere
        #: (``None``, a sweep nobody watches).
        self.heartbeat: Optional[HeartbeatConfig] = (
            HeartbeatConfig(heartbeat_dir(directory))
            if heartbeat == result_cache.DEFAULT else heartbeat)
        self.trace = trace
        self.queue = JobQueue(queue_path(directory))

    # -- the loop ----------------------------------------------------------

    def run(self, after_job: Optional[Callable[[Job], None]] = None
            ) -> WorkerStats:
        """Claim and process jobs, forever or (``drain``) until none is left.

        ``after_job`` is called with each claimed job once it has been
        processed (``run_sweep`` reports progress from it).
        """
        self.queue.register_worker(self.worker_id)
        try:
            while True:
                job = self.queue.claim(self.worker_id, self.lease_s)
                if job is None:
                    if self.drain and self.queue.drained():
                        break
                    self.queue.worker_beat(self.worker_id, "idle")
                    time.sleep(self.poll_s)
                    continue
                self.queue.worker_beat(self.worker_id, "running",
                                       current_key=job.key)
                self._process(job)
                if after_job is not None:
                    after_job(job)
        finally:
            self.queue.worker_beat(
                self.worker_id, "stopped",
                completed=self.stats.executed + self.stats.recovered,
            )
        return self.stats

    # -- one job -----------------------------------------------------------

    def _process(self, job: Job) -> None:
        spec = job.spec()
        continuation = job.claims > 1 or job.attempts > 0

        # Step 1: exactly-once recovery.  A previous owner may have died
        # after cache.put but before queue.complete -- its result is
        # authoritative, never recompute it.  (Checked specs bypass the
        # cache on enqueue and here: a hit would run no sanitizer.)
        if self.cache is not None and not spec.check_requested:
            if self.cache.load(spec) is not None:
                if self.queue.complete(job.key, self.worker_id, wall_s=0.0,
                                       resumed=continuation):
                    self.stats.recovered += 1
                return

        run_spec = sweep.resume_variant(spec) if continuation else spec
        renewer = _LeaseRenewer(self.queue, job.key, self.worker_id,
                                self.lease_s)
        ok, result, error = sweep.execute_cell(
            run_spec, self.trace, self.heartbeat, epoch_hook=renewer,
        )
        if ok:
            if self.cache is not None:
                self.cache.put(spec, result)  # commit point
            if self.queue.complete(job.key, self.worker_id,
                                   wall_s=result.wall_seconds,
                                   resumed=run_spec.resume):
                self.stats.executed += 1
                if run_spec.resume:
                    self.stats.resumed += 1
        elif error is not None and LeaseLost.__name__ in error:
            # Usurped: the new owner's run stands; say nothing to the
            # queue (fail() is owner-guarded and would no-op anyway).
            self.stats.lost_leases += 1
        else:
            self.stats.failures += 1
            self.queue.fail(job.key, self.worker_id, error or "unknown")


class _LeaseRenewer:
    """Epoch hook that keeps the claim alive (or aborts the run).

    Renewal is throttled to a third of the lease period -- epoch closes
    at test scales arrive every few milliseconds and each renewal is a
    queue write.  A failed renewal means another worker reclaimed the
    job after our lease lapsed (e.g. the machine was suspended):
    continuing would waste compute and double-write heartbeats, so the
    run is aborted with :class:`LeaseLost`.
    """

    def __init__(self, queue: JobQueue, key: str, worker_id: str,
                 lease_s: float):
        self.queue = queue
        self.key = key
        self.worker_id = worker_id
        self.lease_s = float(lease_s)
        self._last_renew = time.time()

    def __call__(self, sim) -> None:
        now = time.time()
        if now - self._last_renew < self.lease_s / 3.0:
            return
        if not self.queue.renew(self.key, self.worker_id, self.lease_s,
                                now=now):
            raise LeaseLost(
                f"lease on {self.key[:16]} usurped from {self.worker_id}"
            )
        self._last_renew = now


def worker_main(directory: str, worker_id: Optional[str] = None,
                lease_s: float = DEFAULT_LEASE_S, poll_s: float = 1.0,
                drain: bool = True, **options) -> int:
    """Process entry point (``multiprocessing.Process(target=...)``).

    Builds every connection post-fork (SQLite handles must not cross a
    fork) and returns the number of cells this worker completed.
    ``options`` (``cache``, ``heartbeat``, ``trace``) go to
    :class:`Worker`.
    """
    worker = Worker(directory, worker_id=worker_id, lease_s=lease_s,
                    poll_s=poll_s, drain=drain, **options)
    stats = worker.run()
    return stats.executed + stats.recovered
