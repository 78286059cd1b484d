"""Sweep progress records: atomic per-cell JSON files, one writer each.

A sweep's cell *states* live in its job queue (:mod:`repro.service.queue`);
this module adds what a queue row cannot hold cheaply -- live progress
from inside a running simulation -- with no coordination beyond a
shared directory:

* the worker executing a cell owns one file, ``<cache_key[:16]>.hb.json``,
  rewritten atomically (``mkstemp`` + ``os.replace``) so readers never
  observe a torn JSON document.  Nothing else writes it: the queue, not
  a second writer, records retries, cache hits and final states;
* :class:`HeartbeatWriter` hooks the engine's ``epoch_hook`` -- it is a
  pure observer (reads counters, writes files) and never mutates
  simulation state, so heartbeat-enabled runs stay bit-identical;
* readers (``repro top``, the status API) merge each record into its
  queue row (:func:`repro.service.server.build_status`); the helpers at
  the bottom of this module work on those merged cells.

Progress record schema (all fields JSON scalars)::

    {"schema": 1, "key": "0f3a...", "label": "silo memtis 1:8",
     "workload": "silo", "policy": "memtis", "seed": 42, "pid": 1234,
     "state": "running",          # this attempt: running|done|failed
     "resumed": false,            # true when this attempt restored a
                                  # checkpoint (rates are post-resume)
     "epoch": 17, "accesses": 8500000, "target_accesses": 20000000,
     "progress": 0.425,
     "accesses_per_sec": 1.2e6,       # null until post-resume work exists
     "eta_s": 9.6,                    # null whenever the rate is unknown
     "wall_s": 7.1,               # this attempt's wall so far
     "last_checkpoint_epoch": 16, # null until one is taken
     "violations": 0,             # sanitizer findings so far
     "faults": {"dropped_samples": 0, ...},  # injector stats, if any
     "started_at": 1754650000.0, "updated_at": 1754650007.1,
     "error": "..."}              # failed attempts: last traceback line

Rates and ETA are computed over *this attempt's* work only: a resumed
cell divides post-resume accesses by post-resume wall, so a cell that
spent an hour before being killed does not report a bogus throughput
after its five-second resumed tail.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

#: Bump when the status file layout changes.
SCHEMA = 1

HEARTBEAT_SUFFIX = ".hb.json"

#: Cell states that will never change again on their own.
TERMINAL_STATES = ("done", "failed", "cached")


@dataclass
class HeartbeatStats:
    """Module-wide write-path error tally (mirrors ``CacheStats.errors``)."""

    errors: int = 0


#: Process-wide error counter for the heartbeat write paths: serialization
#: failures and failed commits both land here (the temp file is always
#: cleaned up regardless).
STATS = HeartbeatStats()


def _dump_to_temp(directory: str, payload: Dict[str, Any]) -> str:
    """Serialise ``payload`` into a temp file in ``directory``.

    Returns the temp path on success.  On any failure the fd is closed
    and the temp file unlinked in a ``finally`` (a raising ``json.dump``
    must not leak ``.tmp`` litter into a long-lived heartbeat
    directory), and the error is counted in :data:`STATS`.
    """
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    fh = None
    ok = False
    try:
        fh = os.fdopen(fd, "w")
        json.dump(payload, fh)
        fh.close()
        ok = True
        return tmp
    finally:
        if fh is None:
            os.close(fd)  # os.fdopen itself failed: the fd is still ours
        elif not fh.closed:
            fh.close()
        if not ok:
            STATS.errors += 1
            try:
                os.unlink(tmp)
            except OSError:
                pass


def _write_atomic(path: str, payload: Dict[str, Any]) -> None:
    """Write ``payload`` as JSON such that readers never see a torn file."""
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    tmp = _dump_to_temp(directory, payload)
    try:
        os.replace(tmp, path)
    except BaseException:
        STATS.errors += 1
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


@dataclass(frozen=True)
class HeartbeatConfig:
    """Where progress records go, and how often they are rewritten.

    ``directory`` receives one record per cell; ``min_interval_s``
    throttles how often a running worker rewrites its file (epoch closes
    arrive far faster than any human or scraper reads).  Passed to
    :func:`repro.sim.sweep.run_sweep`, ``directory`` names the sweep
    directory instead: its queue plus an ``hb/`` directory of records.
    """

    directory: str
    min_interval_s: float = 0.25

    def cell_path(self, spec) -> str:
        return os.path.join(
            self.directory, f"{spec.cache_key()[:16]}{HEARTBEAT_SUFFIX}"
        )


class HeartbeatWriter:
    """One executing cell's status channel (worker side).

    Wire :meth:`on_epoch` as the simulation's ``epoch_hook``; call
    :meth:`start` before running and :meth:`finish` after.  Purely
    observational: reads engine/sanitizer/fault state, writes files.
    """

    def __init__(self, config: HeartbeatConfig, spec, resumed: bool = False):
        self.config = config
        self.spec = spec
        self.resumed = bool(resumed)
        self.key = spec.cache_key()[:16]  # hashed once, not per epoch
        self.path = config.cell_path(spec)
        self.started_at = time.time()
        self._last_write = 0.0
        self._last_status: Dict[str, Any] = {}

    def _base(self) -> Dict[str, Any]:
        return {
            "schema": SCHEMA,
            "key": self.key,
            "label": self.spec.label(),
            "workload": self.spec.workload,
            "policy": self.spec.policy,
            "seed": self.spec.seed,
            "pid": os.getpid(),
            "resumed": self.resumed,
            "started_at": self.started_at,
        }

    def status(self, sim, state: str, now: Optional[float] = None
               ) -> Dict[str, Any]:
        """Build the full status payload from a live simulation."""
        now = time.time() if now is None else now
        elapsed = now - self.started_at
        wall = max(elapsed, 1e-9)
        accesses = int(sim.metrics.total_accesses)
        resume_accesses = int(getattr(sim, "_resume_accesses", 0))
        budget = getattr(sim, "_access_budget", None)
        target = float(sim.workload.total_accesses)
        if budget is not None and budget != float("inf"):
            target = min(target, float(budget))
        done_frac = min(accesses / target, 1.0) if target > 0 else 0.0
        progressed = accesses - resume_accesses
        remaining = max(target - accesses, 0.0)
        # A just-(re)started cell has done no post-resume work yet: with
        # ~0 elapsed or 0 progressed accesses any rate is either a
        # division hazard or wildly extrapolated nonsense (a resumed
        # cell's pre-kill accesses all land in the first instant).
        # Report unknown (null) instead; the dashboard renders "-".
        if progressed <= 0 or elapsed < 1e-6:
            rate = None
            eta_s = None
        else:
            rate = progressed / wall
            eta_s = remaining / rate if rate > 0 else None
        findings = sim.obs.counters.get("check/findings")
        payload = dict(
            self._base(),
            state=state,
            resumed=self.resumed or bool(getattr(sim, "_resumed", False)),
            epoch=int(sim._epoch_index),
            accesses=accesses,
            target_accesses=int(target),
            progress=done_frac,
            accesses_per_sec=rate,
            eta_s=eta_s,
            wall_s=wall,
            last_checkpoint_epoch=getattr(sim, "_last_checkpoint_epoch", None),
            violations=int(findings.value) if findings is not None else 0,
            faults=dict(sim.faults.stats) if sim.faults is not None else None,
            updated_at=now,
        )
        self._last_status = payload
        return payload

    def write(self, payload: Dict[str, Any]) -> None:
        _write_atomic(self.path, payload)
        self._last_write = time.time()

    def start(self, sim=None) -> None:
        """Announce the cell as running before the first epoch closes."""
        if sim is not None:
            self.write(self.status(sim, "running"))
        else:
            self.write(dict(self._base(), state="running",
                            updated_at=self.started_at))

    def on_epoch(self, sim) -> None:
        """Engine ``epoch_hook``: refresh status, throttled by interval."""
        now = time.time()
        payload = self.status(sim, "running", now=now)
        if now - self._last_write >= self.config.min_interval_s:
            self.write(payload)

    def finish(self, state: str, error: Optional[str] = None) -> None:
        """Terminal write (``done``/``failed``), never throttled."""
        payload = dict(self._last_status or self._base())
        payload["state"] = state
        payload["updated_at"] = time.time()
        if error is not None:
            lines = error.strip().splitlines()
            payload["error"] = lines[-1] if lines else error
        self.write(payload)


# -- reader side ---------------------------------------------------------------


def read_heartbeats(directory: str) -> List[Dict[str, Any]]:
    """Read every progress record in ``directory``.

    Unreadable or torn files are skipped (a writer may be mid-replace on
    a filesystem without atomic rename semantics); a missing directory
    reads as no records.
    """
    records: List[Dict[str, Any]] = []
    try:
        names = sorted(os.listdir(directory))
    except OSError:
        return records
    for name in names:
        if not name.endswith(HEARTBEAT_SUFFIX):
            continue
        try:
            with open(os.path.join(directory, name)) as fh:
                record = json.load(fh)
        except (OSError, ValueError):
            continue
        if isinstance(record, dict):
            records.append(record)
    return records


def display_state(cell: Dict[str, Any]) -> str:
    """Dashboard state for one cell: terminal states win, then stall,
    then resume."""
    state = str(cell.get("state", "unknown"))
    if state in ("failed", "cached"):
        return state
    if cell.get("stalled") and state not in TERMINAL_STATES:
        return "stalled"
    if cell.get("resumed"):
        return "resumed"
    return state


def mark_stalled(cells: List[Dict[str, Any]], stale_after: float,
                 now: Optional[float] = None) -> int:
    """Flag non-terminal cells whose progress went quiet; returns count.

    A cell claiming ``running``/``retrying`` whose record has not been
    rewritten in ``stale_after`` seconds almost certainly belongs to a
    dead worker (live ones rewrite at least every throttle interval) --
    ``display_state`` renders it ``stalled`` instead of trusting the
    stale claim.  A queued cell that never ran has no timestamp and is
    never flagged.  ``stale_after <= 0`` disables the detector.  Mutates
    the cell dicts in place.
    """
    if stale_after <= 0:
        return 0
    now = time.time() if now is None else now
    stalled = 0
    for cell in cells:
        if str(cell.get("state", "unknown")) in TERMINAL_STATES:
            continue
        updated = cell.get("updated_at") or cell.get("started_at")
        if updated is not None and (now - float(updated)) > stale_after:
            cell["stalled"] = True
            stalled += 1
    return stalled


def sweep_stalled(cells: List[Dict[str, Any]], stale_after: float,
                  drained: bool = False, now: Optional[float] = None) -> bool:
    """True when the sweep can no longer make progress (dead workers).

    Call :func:`mark_stalled` on ``cells`` first.  The sweep counts as
    stalled when its queue is not ``drained``, no running cell is still
    live, and the newest activity of any cell (enqueue, progress record,
    finish) is older than ``stale_after`` -- i.e. everything has gone
    quiet with work left.  ``repro top`` uses this to exit non-zero
    instead of polling a dead sweep forever.
    """
    if stale_after <= 0 or drained:
        return False
    now = time.time() if now is None else now
    for cell in cells:
        if cell.get("state") == "running" and not cell.get("stalled"):
            return False  # something is (plausibly) still working
    newest = max(
        (float(cell.get(field) or 0.0) for cell in cells
         for field in ("updated_at", "started_at", "finished_at",
                       "enqueued_at")),
        default=0.0,
    )
    if newest <= 0.0:
        return False  # nothing to judge staleness from yet
    return (now - newest) > stale_after


def aggregate(cells: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Sweep-level tallies for the dashboard header / exporter."""
    states: Dict[str, int] = {}
    throughput = 0.0
    accesses = 0
    violations = 0
    for cell in cells:
        states[display_state(cell)] = states.get(display_state(cell), 0) + 1
        if cell.get("state") == "running" and not cell.get("stalled"):
            throughput += float(cell.get("accesses_per_sec") or 0.0)
        accesses += int(cell.get("accesses") or 0)
        violations += int(cell.get("violations") or 0)
    return {
        "cells": len(cells),
        "states": states,
        "running_accesses_per_sec": throughput,
        "total_accesses": accesses,
        "violations": violations,
    }
