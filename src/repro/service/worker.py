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
   :func:`~repro.sim.sweep.execute_cell` runs the spec with an epoch
   hook that, every :data:`PROGRESS_INTERVAL_S`, writes the cell's
   progress into its queue row in the UPDATE that renews the lease, and
   raises :class:`LeaseLost` if the lease was usurped -- the worker
   abandons the cell and the new owner's run stands alone.
4. **Commit.**  ``cache.put`` *then* ``queue.complete`` -- the cache
   write is the commit point (see the crash matrix in
   :mod:`repro.service.queue`).  Failures go to ``queue.fail``.  Both
   record the final progress; the queue row is the cell's only state.

``drain=True`` makes the loop exit once the queue holds no live jobs --
the mode ``run_sweep``, the CLI, the smoke script and CI use; without it
the worker idles waiting for more submissions.

Worker *processes* are started only by :func:`supervise`, which runs
``repro service start`` and every ``run_sweep`` on more than one
worker: it releases a dead worker's lease at once and starts a
replacement.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

from repro.service.queue import (
    SCHEMA_VERSION,
    JobQueue,
    Job,
    new_worker_id,
    queue_path,
)
from repro.sim import cache as result_cache
from repro.sim import sweep
from repro.workloads import prefetch

#: Default claim lease.  Far above any epoch duration at test scales, so
#: live workers renew long before expiry; small enough that a killed
#: worker's job re-queues promptly.
DEFAULT_LEASE_S = 30.0

#: How often a running cell writes its progress into its queue row,
#: renewing its lease in the same UPDATE.  Epoch closes arrive far
#: faster than any human or scraper reads, and each write is a queue
#: transaction; a lease must be longer than this to survive.
PROGRESS_INTERVAL_S = 0.25


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
                 trace: Optional["sweep.TraceConfig"] = None,
                 streams: Optional["sweep.SharedStreams"] = None):
        self.directory = directory
        self.worker_id = worker_id or new_worker_id()
        self.lease_s = float(lease_s)
        self.poll_s = float(poll_s)
        self.drain = bool(drain)
        self.cache = result_cache.resolve_cache(cache)
        self.stats = WorkerStats()
        self.trace = trace
        self.streams = streams
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
                                self.lease_s, resumed=run_spec.resume)
        ok, result, error = sweep.execute_cell(run_spec, self.trace,
                                               epoch_hook=renewer,
                                               streams=self.streams)
        if ok:
            if self.cache is not None:
                self.cache.put(spec, result)  # commit point
            if self.queue.complete(job.key, self.worker_id,
                                   wall_s=result.wall_seconds,
                                   resumed=run_spec.resume,
                                   progress=renewer.final()):
                self.stats.executed += 1
                if run_spec.resume:
                    self.stats.resumed += 1
        elif error is not None and LeaseLost.__name__ in error:
            # Usurped: the new owner's run stands; say nothing to the
            # queue (fail() is owner-guarded and would no-op anyway).
            self.stats.lost_leases += 1
        else:
            self.stats.failures += 1
            self.queue.fail(job.key, self.worker_id, error or "unknown",
                            progress=renewer.final())


class _LeaseRenewer:
    """Epoch hook that reports the cell's progress and keeps its claim.

    Every epoch it computes the attempt's progress (:meth:`status`);
    every :data:`PROGRESS_INTERVAL_S` it writes that into the job's row
    in the owner-guarded UPDATE that renews the lease.  A refused write
    means another worker reclaimed the job after our lease lapsed (e.g.
    the machine was suspended): the row keeps the new owner's progress,
    and the run is aborted with :class:`LeaseLost`.  Otherwise purely
    observational -- it reads engine, sanitizer and fault state and
    never mutates the simulation, so results stay bit-identical.

    Rates and ETA cover *this attempt's* work only: a resumed cell
    divides post-resume accesses by post-resume wall, so a cell that
    ran an hour before being killed does not report a bogus throughput
    after its five-second resumed tail.
    """

    def __init__(self, queue: JobQueue, key: str, worker_id: str,
                 lease_s: float, resumed: bool = False):
        self.queue = queue
        self.key = key
        self.worker_id = worker_id
        self.lease_s = float(lease_s)
        self.resumed = bool(resumed)
        self.started_at = time.time()
        self._last_renew = self.started_at
        self._last_status: Optional[Dict[str, Any]] = None

    def _base(self) -> Dict[str, Any]:
        return {"schema": SCHEMA_VERSION, "pid": os.getpid(),
                "resumed": self.resumed, "started_at": self.started_at}

    def status(self, sim, now: Optional[float] = None) -> Dict[str, Any]:
        """The attempt's progress, read from a live simulation."""
        now = time.time() if now is None else now
        elapsed = now - self.started_at
        wall = max(elapsed, 1e-9)
        accesses = int(sim.metrics.total_accesses)
        budget = sim._access_budget
        target = float(sim.workload.total_accesses)
        if budget is not None and budget != float("inf"):
            target = min(target, float(budget))
        progressed = accesses - int(sim._resume_accesses)
        # A just-(re)started cell has done no post-resume work yet: with
        # ~0 elapsed or 0 progressed accesses any rate is either a
        # division hazard or wildly extrapolated nonsense (a resumed
        # cell's pre-kill accesses all land in the first instant).
        # Report unknown (null) instead; the dashboard renders "-".
        rate = eta_s = None
        if progressed > 0 and elapsed >= 1e-6:
            rate = progressed / wall
            eta_s = max(target - accesses, 0.0) / rate
        findings = sim.obs.counters.get("check/findings")
        self._last_status = dict(
            self._base(),
            resumed=self.resumed or bool(sim._resumed),
            epoch=int(sim._epoch_index),
            accesses=accesses,
            target_accesses=int(target),
            progress=min(accesses / target, 1.0) if target > 0 else 0.0,
            accesses_per_sec=rate,
            eta_s=eta_s,
            wall_s=wall,
            last_checkpoint_epoch=sim._last_checkpoint_epoch,
            violations=int(findings.value) if findings is not None else 0,
            faults=dict(sim.faults.stats) if sim.faults is not None else None,
            updated_at=now,
        )
        return self._last_status

    def __call__(self, sim) -> None:
        now = time.time()
        progress = self.status(sim, now)
        if now - self._last_renew < PROGRESS_INTERVAL_S:
            return
        if not self.queue.renew(self.key, self.worker_id, self.lease_s,
                                progress=progress, now=now):
            raise LeaseLost(
                f"lease on {self.key[:16]} usurped from {self.worker_id}"
            )
        self._last_renew = now

    def final(self) -> Dict[str, Any]:
        """The last epoch's progress (just who ran it, if no epoch
        closed), stamped now, for ``complete``/``fail``."""
        return dict(self._last_status or self._base(),
                    updated_at=time.time())


def worker_main(directory: str, worker_id: Optional[str] = None,
                lease_s: float = DEFAULT_LEASE_S, poll_s: float = 1.0,
                drain: bool = True, workers: int = 1, **options) -> int:
    """Process entry point of the workers :func:`supervise` starts.

    Builds every connection post-fork (SQLite handles must not cross a
    fork) and returns the number of cells this worker completed.
    ``workers`` is how many the supervisor runs side by side; they share
    the CPUs (:func:`repro.workloads.prefetch.share_cpus`).  ``options``
    (``cache``, ``trace``, ``streams``) go to :class:`Worker`.
    """
    prefetch.share_cpus(workers)
    worker = Worker(directory, worker_id=worker_id, lease_s=lease_s,
                    poll_s=poll_s, drain=drain, **options)
    stats = worker.run()
    return stats.executed + stats.recovered


def supervise(directory: str, workers: int, drain: bool = True,
              lease_s: float = DEFAULT_LEASE_S, poll_s: float = 1.0,
              observe: Optional[Callable[[Job], None]] = None,
              **options) -> None:
    """Run ``workers`` :func:`worker_main` processes on ``directory``.

    Workers start the platform's default way -- forked on Linux, so they
    inherit the caller's in-process state (forced kernel modes, patched
    functions) as an in-process drain would; they are sent only
    picklable configuration (``options`` go to :class:`Worker`), so any
    start method works.  Nothing else may run in a thread of the caller
    while it supervises: a fork while that thread is inside SQLite hands
    the new worker a held lock.

    A worker that dies (any non-zero exit, e.g. SIGKILL) has its lease
    released at once (:meth:`JobQueue.release`) and, while work may
    remain, is replaced.  More deaths than the queue's jobs could cost
    (:meth:`JobQueue.death_budget`) means workers die for some other
    reason: the supervisor stops with an error.  ``observe`` sees every
    job row once per poll.  With ``drain`` it returns once the queue
    drains; without, it runs until interrupted.  Either way the workers
    still running are stopped and marked ``stopped`` on the way out.
    """
    import multiprocessing
    from multiprocessing.connection import wait

    ctx = multiprocessing.get_context()
    procs: Dict[str, multiprocessing.process.BaseProcess] = {}

    def start() -> None:
        worker_id = new_worker_id()
        procs[worker_id] = ctx.Process(
            target=worker_main, args=(directory,), daemon=True,
            kwargs=dict(worker_id=worker_id, lease_s=lease_s, poll_s=poll_s,
                        drain=drain, workers=workers, **options),
        )
        procs[worker_id].start()

    queue = JobQueue(queue_path(directory))
    deaths = 0
    try:
        for _ in range(workers):
            start()
        while procs:
            wait([proc.sentinel for proc in procs.values()],
                 timeout=4 * poll_s)
            if observe is not None:
                for job in queue.jobs():
                    observe(job)
            if drain and queue.drained():
                break  # the rest are idle: stop them, don't wait a poll
            for worker_id, proc in list(procs.items()):
                if proc.exitcode is None:
                    continue
                del procs[worker_id]
                if proc.exitcode == 0:
                    continue
                deaths += 1
                queue.release(worker_id)
                queue.worker_beat(worker_id, "stopped")
                if drain and queue.drained():
                    continue
                if deaths > queue.death_budget():
                    raise RuntimeError(
                        f"workers keep dying (last exit code "
                        f"{proc.exitcode}; see their stderr)")
                start()
    finally:
        for proc in procs.values():
            proc.terminate()
        for worker_id, proc in procs.items():
            proc.join()
            queue.worker_beat(worker_id, "stopped")
        queue.close()
