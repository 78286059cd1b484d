"""Parallel sweep executor: fan :class:`RunSpec` cells out over workers.

Reproducing a paper figure means sweeping a grid of configurations --
Fig. 5 alone is 8 workloads x 7 policies x 3 ratios plus 24 shared
baselines.  :func:`run_sweep` executes any collection of specs:

* **deduplicated** -- identical specs (notably the all-capacity
  baselines shared by every policy in a (workload, ratio) cell) are
  executed exactly once, regardless of how many times they appear;
* **cached** -- specs whose results are already in the persistent
  :mod:`repro.sim.cache` are not executed at all;
* **parallel** -- remaining cells fan out over a
  ``concurrent.futures.ProcessPoolExecutor`` with ``jobs`` workers;
  ``jobs=1`` degrades to in-process serial execution with bit-identical
  results (every simulation derives its randomness from the spec seed);
* **fault-isolated** -- a cell that raises, or a worker process that
  dies outright, is retried ``retries`` times and then reported as a
  failed :class:`CellOutcome` while the rest of the sweep completes;
* **observable** -- a ``progress`` callback receives a
  :class:`SweepEvent` per completed cell (accepting callbacks that take
  the event or just a message string); pass a :class:`TraceConfig` to
  additionally capture a structured trace per executed cell (cached
  cells get a stub file annotated ``from_cache``).

:func:`timing_summary` aggregates wall-clock statistics over a finished
sweep, *excluding* cached cells (their ``wall_seconds`` is zeroed and
would otherwise skew the mean and percentiles toward zero).

The default worker count comes from :func:`set_default_jobs` (set by the
CLI ``--jobs`` flag) or the ``REPRO_JOBS`` environment variable.
"""

from __future__ import annotations

import json
import os
import time
import traceback
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs.heartbeat import (
    HeartbeatConfig,
    HeartbeatWriter,
    write_cell_status,
    write_manifest,
)
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

    os.makedirs(trace.directory, exist_ok=True)
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
    os.makedirs(trace.directory, exist_ok=True)
    path = trace.cell_path(spec)
    if os.path.exists(path):
        return
    meta = {"spec": spec.to_dict(), "from_cache": True}
    if trace.fmt == "chrome":
        with open(path, "w") as fh:
            json.dump({"traceEvents": [], "displayTimeUnit": "ms",
                       "otherData": meta}, fh)
    elif trace.fmt == "jsonl":
        with open(path, "w") as fh:
            fh.write(json.dumps({"type": "meta", **meta}) + "\n")
    else:
        with open(path, "w") as fh:
            fh.write("(from cache: no events captured)\n")


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


def _emit(progress: Optional[ProgressFn], event: SweepEvent) -> None:
    if progress is not None:
        progress(event)


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

    Runs without touching the cache: the driver pre-filters hits and
    persists successes, so workers stay pure compute.  With ``trace``,
    the run is traced and the events exported to the trace directory
    before returning (tracing never changes simulation results).  With
    ``heartbeat``, the cell streams its status into the heartbeat
    directory per epoch and stamps a terminal ``done``/``failed`` state.
    An extra ``epoch_hook`` (e.g. the service worker's lease renewal)
    is chained after the heartbeat's own hook.

    Only :class:`Exception` is converted into a failed-cell tuple;
    ``KeyboardInterrupt``/``SystemExit`` propagate so Ctrl-C cancels a
    sweep instead of burning retries on every in-flight cell.

    This is the single execution path shared by :func:`run_sweep`
    workers and the ``repro.service`` queue workers.
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
        # Pass epoch_hook only when needed: out-of-tree execute()
        # wrappers predating the kwarg keep working on plain sweeps.
        result = (
            spec.execute(obs=obs, epoch_hook=hook)
            if hook is not None else spec.execute(obs=obs)
        )
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


def _execute_batch(
    specs: Sequence[RunSpec], jobs: int,
    trace: Optional[TraceConfig] = None,
    heartbeat: Optional[HeartbeatConfig] = None,
) -> List[Tuple[RunSpec, Tuple[bool, Optional[SimResult], Optional[str]]]]:
    """Run ``specs`` once each; one (spec, (ok, result, error)) per spec."""
    if jobs <= 1 or len(specs) <= 1:
        return [(spec, execute_cell(spec, trace, heartbeat)) for spec in specs]
    out = []
    returned = set()
    try:
        with ProcessPoolExecutor(max_workers=min(jobs, len(specs))) as pool:
            futures = {
                pool.submit(execute_cell, spec, trace, heartbeat): spec
                for spec in specs
            }
            for future in as_completed(futures):
                spec = futures[future]
                try:
                    out.append((spec, future.result()))
                except BrokenProcessPool:
                    raise
                except Exception as exc:  # e.g. result unpickling failure
                    out.append((spec, (False, None, repr(exc))))
                returned.add(spec)
    except BrokenProcessPool:
        # A worker died hard (segfault/OOM-kill): every cell still in
        # flight counts this as a failed attempt; the caller may retry.
        for spec in specs:
            if spec not in returned:
                out.append((spec, (
                    False, None,
                    "worker process died (BrokenProcessPool); "
                    "cell will be retried if attempts remain",
                )))
    return out


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
    cache hits get a stub annotated ``from_cache`` instead.  With
    ``heartbeat``, the sweep becomes observable from outside: the
    parent writes a manifest plus ``cached``/``retrying`` stamps, and
    every executing cell streams per-epoch status files (``repro top``
    renders them live).

    Retries are checkpoint-aware: a failed (or killed) cell whose spec
    has ``snapshot_every > 0`` is re-run with ``resume=True``, so the
    retry continues from the failed attempt's last epoch checkpoint
    instead of recomputing finished epochs.
    """
    ordered = list(dict.fromkeys(specs))
    jobs = default_jobs() if jobs is None else max(1, int(jobs))
    cache = result_cache.resolve_cache(cache)
    total = len(ordered)
    completed = 0
    outcomes: Dict[RunSpec, CellOutcome] = {}
    sweep_started = time.time()
    if heartbeat is not None:
        write_manifest(heartbeat, ordered, started_at=sweep_started)

    pending: List[RunSpec] = []
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
            completed += 1
            # Mirror RunSpec.run(): a cached cell did no simulation
            # work, so it must not replay the original wall time.
            hit.wall_seconds = 0.0
            hit.from_cache = True
            outcomes[spec] = CellOutcome(spec, result=hit, from_cache=True)
            if trace is not None:
                _write_cached_stub(trace, spec)
            if heartbeat is not None:
                write_cell_status(heartbeat, spec, "cached", progress=1.0)
            _emit(progress, SweepEvent("cached", spec, completed, total))
        else:
            pending.append(spec)

    attempts: Dict[RunSpec, int] = {spec: 0 for spec in pending}
    # Each work item is (original spec, spec actually executed): a retry
    # of a checkpointing cell runs the ``resume=True`` variant, which
    # restores the failed attempt's last checkpoint instead of
    # recomputing finished epochs.  Outcomes/attempts/cache stay keyed
    # by the original spec (the resume variant shares its cache key).
    work: List[Tuple[RunSpec, RunSpec]] = [(spec, spec) for spec in pending]
    while work:
        batch, work = work, []
        run_map = {run_spec: spec for spec, run_spec in batch}
        for run_spec, (ok, result, error) in _execute_batch(
            [run_spec for _, run_spec in batch], jobs, trace, heartbeat
        ):
            spec = run_map[run_spec]
            attempts[spec] += 1
            if ok:
                completed += 1
                outcomes[spec] = CellOutcome(
                    spec, result=result, attempts=attempts[spec],
                    resumed=run_spec.resume,
                )
                if cache is not None:
                    cache.put(spec, result)
                if heartbeat is not None:
                    write_cell_status(
                        heartbeat, spec, "done",
                        attempts=attempts[spec], resumed=run_spec.resume,
                    )
                _emit(progress, SweepEvent("done", spec, completed, total))
            elif attempts[spec] <= retries:
                work.append((spec, resume_variant(run_spec)))
                if heartbeat is not None:
                    write_cell_status(
                        heartbeat, spec, "retrying", attempts=attempts[spec],
                    )
                _emit(progress, SweepEvent(
                    "retry", spec, completed, total, error=error
                ))
            else:
                completed += 1
                outcomes[spec] = CellOutcome(
                    spec, error=error, attempts=attempts[spec],
                    resumed=run_spec.resume,
                )
                if heartbeat is not None:
                    write_cell_status(
                        heartbeat, spec, "failed",
                        attempts=attempts[spec], resumed=run_spec.resume,
                    )
                _emit(progress, SweepEvent(
                    "failed", spec, completed, total, error=error
                ))

    if heartbeat is not None:
        write_manifest(heartbeat, ordered, started_at=sweep_started,
                       finished_at=time.time())
    return {spec: outcomes[spec] for spec in ordered}


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
