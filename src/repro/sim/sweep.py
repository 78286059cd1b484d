"""Sweep executor: fan :class:`RunSpec` cells out over queue workers.

Reproducing a paper figure means sweeping a grid of configurations --
Fig. 5 alone is 8 workloads x 7 policies x 3 ratios plus 24 shared
baselines.  :func:`run_sweep` executes any collection of specs:

* **deduplicated** -- identical specs (notably the all-capacity
  baselines shared by every policy in a (workload, ratio) cell) are
  executed exactly once, regardless of how many times they appear;
* **cached** -- specs whose results are already in the persistent
  :mod:`repro.sim.cache` are not executed at all;
* **queued** -- the remaining cells go into a
  :class:`~repro.service.queue.JobQueue` and ``jobs`` local
  :func:`~repro.service.worker.worker_main` processes drain it, exactly
  as service workers do; ``jobs=1`` drains it in-process with
  bit-identical results (every simulation derives its randomness from
  the spec seed);
* **fault-isolated** -- a cell that raises is retried ``retries`` times
  and then reported as a failed :class:`CellOutcome` while the rest of
  the sweep completes; a worker process that dies outright costs only
  the cell it held one lease expiry (the worker supervisor,
  :func:`~repro.service.worker.supervise`, releases the lease at once
  and starts a replacement), and that cell fails once it has killed
  ``retries + 1`` workers;
* **observable** -- a ``progress`` callback receives a
  :class:`SweepEvent` per completed (or retried) cell; pass a
  :class:`TraceConfig` to also capture a structured trace per executed
  cell (cached cells get a stub file annotated ``from_cache``), or a
  :class:`~repro.obs.heartbeat.HeartbeatConfig` to keep the queue and
  the workers' progress records in a directory ``repro top`` watches.

:func:`timing_summary` aggregates wall-clock statistics over a finished
sweep, *excluding* cached cells (their ``wall_seconds`` is zeroed and
would otherwise skew the mean and percentiles toward zero).

The default worker count comes from :func:`set_default_jobs` (set by the
CLI ``--jobs`` flag) or the ``REPRO_JOBS`` environment variable.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import traceback
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs.heartbeat import HeartbeatConfig, HeartbeatWriter
from repro.sim import cache as result_cache
from repro.sim.engine import SimResult
from repro.sim.runner import RunSpec

# -- default parallelism ------------------------------------------------------

_default_jobs: Optional[int] = None


def set_default_jobs(jobs: Optional[int]) -> None:
    """Set the process-wide default worker count (``None`` resets)."""
    global _default_jobs
    _default_jobs = None if jobs is None else max(1, int(jobs))


def default_jobs() -> int:
    """Configured default, else ``$REPRO_JOBS``, else 1 (serial)."""
    if _default_jobs is not None:
        return _default_jobs
    env = os.environ.get("REPRO_JOBS", "")
    try:
        return max(1, int(env))
    except ValueError:
        return 1


# -- per-cell tracing ---------------------------------------------------------

#: File extension per trace export format.
_TRACE_EXT = {"chrome": "json", "jsonl": "jsonl", "ascii": "txt"}


@dataclass(frozen=True)
class TraceConfig:
    """Picklable per-cell tracing request for :func:`run_sweep`.

    ``directory`` receives one trace file per cell, named by the cell's
    content hash (``<cache_key[:16]>.<ext>``) so files are stable across
    re-runs.  ``categories=None`` means all categories.
    """

    directory: str
    level: str = "info"
    categories: Optional[Tuple[str, ...]] = None
    fmt: str = "chrome"
    capacity: int = 1 << 16

    def __post_init__(self):
        if self.fmt not in _TRACE_EXT:
            raise ValueError(
                f"unknown trace format {self.fmt!r}; "
                f"expected one of {sorted(_TRACE_EXT)}"
            )
        if self.categories is not None and not isinstance(
            self.categories, tuple
        ):
            object.__setattr__(self, "categories", tuple(self.categories))

    def cell_path(self, spec: RunSpec) -> str:
        return os.path.join(
            self.directory,
            f"{spec.cache_key()[:16]}.{_TRACE_EXT[self.fmt]}",
        )


def _export_cell_trace(trace: TraceConfig, spec: RunSpec, obs, result) -> None:
    from repro.obs.export import export_tracer

    export_tracer(
        obs.tracer, trace.cell_path(spec), fmt=trace.fmt,
        phase_ns=result.phase_ns,
        meta={"spec": spec.to_dict(), "from_cache": False},
    )


def _write_cached_stub(trace: TraceConfig, spec: RunSpec) -> None:
    """Annotate a cache hit: no events were captured for this cell.

    A real trace from an earlier (uncached) run of the same cell is
    left untouched -- the stub only fills the gap.
    """
    from repro.obs.export import export_tracer
    from repro.obs.tracer import Tracer

    path = trace.cell_path(spec)
    if not os.path.exists(path):
        export_tracer(Tracer(), path, fmt=trace.fmt,
                      meta={"spec": spec.to_dict(), "from_cache": True})


# -- outcomes and progress ----------------------------------------------------


@dataclass
class CellOutcome:
    """What happened to one sweep cell."""

    spec: RunSpec
    result: Optional[SimResult] = None
    error: Optional[str] = None
    from_cache: bool = False
    attempts: int = 0
    #: True when the (final) attempt restored an epoch checkpoint: its
    #: ``result.wall_seconds`` covers post-resume work only.
    resumed: bool = False

    @property
    def ok(self) -> bool:
        return self.result is not None


@dataclass
class SweepEvent:
    """Progress notification for one completed (or retried) cell."""

    status: str  #: "cached" | "done" | "failed" | "retry"
    spec: RunSpec
    completed: int
    total: int
    error: Optional[str] = None

    @property
    def message(self) -> str:
        tag = {"cached": " [cached]", "failed": " [FAILED]",
               "retry": " [retrying]"}.get(self.status, "")
        return f"{self.spec.label()}{tag} ({self.completed}/{self.total})"


ProgressFn = Callable[[SweepEvent], None]


class _Progress:
    """Sends each cell's events once, from cache hits and queue rows."""

    def __init__(self, callback: Optional[ProgressFn], total: int):
        self.callback = callback
        self.total = total
        self.completed = 0
        self._retries: Dict[str, int] = defaultdict(int)
        self._finished = set()

    def emit(self, status: str, spec: RunSpec,
             error: Optional[str] = None) -> None:
        if status != "retry":
            self.completed += 1
        if self.callback is not None:
            self.callback(SweepEvent(status, spec, self.completed,
                                     self.total, error=error))

    def observe(self, job, specs: Sequence[RunSpec]) -> None:
        """Report what happened to ``job`` since it was last observed."""
        if job.key in self._finished:
            return
        failed = job.state == "failed"
        # Every raise or lost worker is a retry, except the one that
        # finally failed the cell.
        lost = job.attempts + job.expirations - (1 if failed else 0)
        while self._retries[job.key] < lost:
            self._retries[job.key] += 1
            for spec in specs:
                self.emit("retry", spec, job.error)
        if failed or job.state == "done":
            self._finished.add(job.key)
            for spec in specs:
                self.emit(job.state, spec, job.error if failed else None)


# -- execution ----------------------------------------------------------------


def resume_variant(spec: RunSpec) -> RunSpec:
    """The spec to execute when continuing a failed/killed attempt.

    A checkpointing spec (``snapshot_every > 0``) continues with
    ``resume=True`` -- it restores the prior attempt's last epoch
    checkpoint instead of recomputing finished epochs.  Anything else
    simply re-runs from scratch.  The variant shares the original's
    cache key, so outcomes/cache entries stay keyed consistently.
    """
    return spec.replace(resume=True) if spec.snapshot_every > 0 else spec


def execute_cell(
    spec: RunSpec, trace: Optional[TraceConfig] = None,
    heartbeat: Optional[HeartbeatConfig] = None,
    epoch_hook: Optional[Callable] = None,
) -> Tuple[bool, Optional[SimResult], Optional[str]]:
    """Execute one spec; never raises for ordinary cell errors.

    Runs without touching the cache: the worker that calls it commits
    the result.  With ``trace``, the run is traced and the events
    exported to the trace directory before returning (tracing never
    changes simulation results).  With ``heartbeat``, the cell streams
    its progress record into the heartbeat directory per epoch.  An
    extra ``epoch_hook`` (e.g. the worker's lease renewal) is chained
    after the heartbeat's own hook.

    Only :class:`Exception` is converted into a failed-cell tuple;
    ``KeyboardInterrupt``/``SystemExit`` propagate so Ctrl-C cancels a
    sweep instead of burning retries on every in-flight cell.

    This is the single execution path of the queue workers that back
    :func:`run_sweep` and the ``repro.service`` directories.
    """
    hb = None
    if heartbeat is not None:
        hb = HeartbeatWriter(heartbeat, spec, resumed=spec.resume)
        hb.start()
    try:
        obs = None
        if trace is not None:
            from repro.obs import Observability

            obs = Observability.traced(
                level=trace.level, events=trace.categories,
                capacity=trace.capacity,
            )
        hook = epoch_hook
        if hb is not None:
            if hook is None:
                hook = hb.on_epoch
            else:
                extra = hook

                def hook(snapshot, _hb_hook=hb.on_epoch, _extra=extra):
                    _hb_hook(snapshot)
                    _extra(snapshot)
        result = spec.execute(obs=obs, epoch_hook=hook)
        if trace is not None:
            _export_cell_trace(trace, spec, obs, result)
        if hb is not None:
            hb.finish("done")
        return True, result, None
    except Exception:
        error = traceback.format_exc()
        if hb is not None:
            hb.finish("failed", error=error)
        return False, None, error


#: Idle-poll period of a sweep's worker processes, and how often the
#: parent looks at the queue for progress while they run.
_POLL_S = 0.05


def run_sweep(
    specs: Iterable[RunSpec],
    jobs: Optional[int] = None,
    cache=result_cache.DEFAULT,
    progress: Optional[ProgressFn] = None,
    retries: int = 1,
    trace: Optional[TraceConfig] = None,
    heartbeat: Optional[HeartbeatConfig] = None,
) -> Dict[RunSpec, CellOutcome]:
    """Execute every distinct spec; returns ``{spec: CellOutcome}``.

    Results for duplicate specs are shared; input order is preserved in
    the returned mapping.  Failed cells never abort the sweep -- check
    ``outcome.ok`` (or use :func:`raise_failures`).  With ``trace``,
    each executed cell writes a trace file into ``trace.directory``;
    cache hits get a stub annotated ``from_cache`` instead.

    Cells the cache cannot serve are enqueued in a job queue and drained
    by the same worker loop as ``repro service`` (see the module
    docstring).  Without ``heartbeat`` the queue lives in a temporary
    directory and no progress records are written; with it,
    ``heartbeat.directory`` holds the queue and ``hb/`` progress
    records, and ``repro top`` renders it live.  The sweep drops the
    rows of an earlier, finished sweep there, but raises
    :class:`~repro.service.queue.QueueBusy` rather than touch a queue
    still in use (a live service, another running sweep).  Workers
    commit results to a store private to the sweep; this process reads
    each one back as its job finishes and puts it into ``cache``.

    Retries are checkpoint-aware: a failed (or killed) cell whose spec
    has ``snapshot_every > 0`` is re-run with ``resume=True``, so the
    retry continues from the failed attempt's last epoch checkpoint
    instead of recomputing finished epochs.
    """
    ordered = list(dict.fromkeys(specs))
    jobs = default_jobs() if jobs is None else max(1, int(jobs))
    cache = result_cache.resolve_cache(cache)
    report = _Progress(progress, len(ordered))
    outcomes: Dict[RunSpec, CellOutcome] = {}
    for spec in ordered:
        # Checked specs must execute: a cache hit would skip the
        # sanitizer entirely (checks never change results, so executed
        # cells still publish into the shared cache entry).
        hit = (
            cache.get(spec)
            if cache is not None and not spec.check_requested
            else None
        )
        if hit is not None:
            # Mirror RunSpec.run(): a cached cell did no simulation
            # work, so it must not replay the original wall time.
            hit.wall_seconds = 0.0
            hit.from_cache = True
            outcomes[spec] = CellOutcome(spec, result=hit, from_cache=True)
            if trace is not None:
                _write_cached_stub(trace, spec)
            report.emit("cached", spec)
    pending = [spec for spec in ordered if spec not in outcomes]
    if pending or heartbeat is not None:
        outcomes.update(_drain(pending, list(outcomes), jobs, cache, retries,
                               trace, heartbeat, report))
    return {spec: outcomes[spec] for spec in ordered}


def _drain(pending: List[RunSpec], hits: List[RunSpec], jobs: int, cache,
           retries: int, trace: Optional[TraceConfig],
           heartbeat: Optional[HeartbeatConfig], report: _Progress
           ) -> Dict[RunSpec, CellOutcome]:
    """Enqueue ``pending``, drain the queue with workers, read outcomes."""
    from repro.service.queue import JobQueue, heartbeat_dir, queue_path
    from repro.service.worker import Worker, supervise

    scratch = tempfile.mkdtemp(prefix="repro-sweep-")
    try:
        directory = heartbeat.directory if heartbeat is not None else scratch
        # Workers commit to the sweep's own store; the caller's cache is
        # written here, in this process, as results are collected.
        store = result_cache.ResultCache(os.path.join(scratch, "results"))
        records = None if heartbeat is None else HeartbeatConfig(
            heartbeat_dir(directory), heartbeat.min_interval_s)
        options = dict(cache=store, heartbeat=records, trace=trace)
        by_key: Dict[str, List[RunSpec]] = defaultdict(list)
        for spec in pending:
            by_key[spec.cache_key()].append(spec)
        outcomes: Dict[RunSpec, CellOutcome] = {}

        def observe(job) -> None:
            """Collect a finished job's result into the caller's cache
            (so an interrupted sweep keeps it), then report progress."""
            specs = by_key.get(job.key)
            if not specs:
                return
            if job.state in ("done", "failed") and specs[0] not in outcomes:
                result = store.load(specs[0]) if job.state == "done" else None
                if result is not None and cache is not None:
                    cache.put(specs[0], result)
                for spec in specs:
                    outcomes[spec] = _outcome(spec, job, result)
            report.observe(job, specs)

        with JobQueue(queue_path(directory)) as queue:
            queue.enqueue(pending, cache=None, max_attempts=retries + 1,
                          fresh=True)
            # Hits only show up on the dashboard; none is claimable.
            queue.enqueue(hits, cache=cache)
            workers = min(jobs, len(pending))
            if workers == 1:
                worker = Worker(directory, drain=True, **options)
                try:
                    worker.run(after_job=lambda job: observe(
                        worker.queue.job(job.key)))
                finally:
                    worker.queue.close()
            elif workers > 1:
                supervise(directory, workers, poll_s=_POLL_S,
                          observe=observe, **options)
            for job in queue.jobs():
                observe(job)
        return outcomes
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _outcome(spec: RunSpec, job, result: Optional[SimResult]
             ) -> CellOutcome:
    """The :class:`CellOutcome` a finished queue row stands for."""
    if job.state != "done":
        return CellOutcome(spec, error=job.error or f"cell {job.state}",
                           attempts=job.claims, resumed=job.resumed)
    if result is None:
        return CellOutcome(spec, error="result missing from the sweep store",
                           attempts=job.claims, resumed=job.resumed)
    return CellOutcome(spec, result=result, attempts=job.claims,
                       resumed=job.resumed)


class SweepError(RuntimeError):
    """Raised by :func:`raise_failures` when any sweep cell failed."""

    def __init__(self, failures: Sequence[CellOutcome]):
        self.failures = list(failures)
        lines = [f"{len(self.failures)} sweep cell(s) failed:"]
        for outcome in self.failures:
            last = (outcome.error or "").strip().splitlines()
            lines.append(
                f"  - {outcome.spec.label()} "
                f"(attempts={outcome.attempts}): {last[-1] if last else '?'}"
            )
        super().__init__("\n".join(lines))


def raise_failures(outcomes: Dict[RunSpec, CellOutcome]) -> None:
    """Raise :class:`SweepError` if any outcome failed; else no-op."""
    failures = [o for o in outcomes.values() if not o.ok]
    if failures:
        raise SweepError(failures)


def _percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile over an already-sorted sequence."""
    if not sorted_values:
        return 0.0
    rank = max(0, min(len(sorted_values) - 1,
                      int(round(q * (len(sorted_values) - 1)))))
    return sorted_values[rank]


def timing_summary(outcomes) -> Dict[str, float]:
    """Wall-clock statistics over a sweep, excluding cached cells.

    Cached cells carry ``wall_seconds == 0.0`` (they did no simulation
    work), so including them would drag the mean and percentiles toward
    zero; they are counted separately instead.  Resumed cells (retries
    that restored an epoch checkpoint) are counted under ``resumed``;
    their ``wall_seconds`` covers the post-resume attempt only -- the
    engine times each ``run()`` call fresh, so a killed first attempt's
    wall never leaks into the resumed result.  Accepts the mapping
    returned by :func:`run_sweep` or any iterable of
    :class:`CellOutcome`.
    """
    cells = list(outcomes.values()) if isinstance(outcomes, dict) \
        else list(outcomes)
    cached = sum(1 for o in cells if o.ok and o.from_cache)
    failed = sum(1 for o in cells if not o.ok)
    resumed = sum(
        1 for o in cells if o.ok and getattr(o, "resumed", False)
    )
    walls = sorted(
        o.result.wall_seconds for o in cells if o.ok and not o.from_cache
    )
    n = len(walls)
    return {
        "cells": len(cells),
        "executed": n,
        "cached": cached,
        "failed": failed,
        "resumed": resumed,
        "wall_total_s": float(sum(walls)),
        "wall_mean_s": float(sum(walls) / n) if n else 0.0,
        "wall_min_s": float(walls[0]) if n else 0.0,
        "wall_max_s": float(walls[-1]) if n else 0.0,
        "wall_p50_s": float(_percentile(walls, 0.50)),
        "wall_p90_s": float(_percentile(walls, 0.90)),
    }
