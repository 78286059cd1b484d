"""The benchmark's workloads: inputs made from a seed, timed work, checks.

Every workload has the same shape.  ``setup(rep_dir, recorder)`` builds
the inputs and objects of one rep (timed by the harness as ``setup_s``);
``run(state, recorder)`` does the timed work and checks its outputs;
``close(state)`` releases what setup opened.  With a
:class:`~layers.SpanRecorder` the built objects are instrumented before
anything runs; without one, nothing is wrapped.

One *op* is one simulation run, one sweep cell (cold or cached) or one
queue claim+complete.  An op fails when it raises or fails a check;
failures are counted, never raised, so one bad op cannot hide the rest.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from record_bench import MACRO_BATCH, TRACE_EVENT_ACCESSES, TRACE_SCALE
from repro.policies.registry import make_policy
from repro.service.queue import DONE, JobQueue, queue_path
from repro.sim.cache import ResultCache
from repro.sim.engine import Simulation, SimResult
from repro.sim.machine import DEFAULT_SCALE, MachineSpec, ScaleSpec
from repro.sim.runner import RunSpec
from repro.sim.sweep import run_sweep
from repro.workloads.registry import make_workload
from repro.workloads.trace import TraceWorkload, record_trace

from layers import SpanRecorder, instrument_simulation

MIB = 1024 * 1024

#: The related-work zoo plus MEMTIS and TPP (``damon`` is a passive
#: monitor outside ``POLICY_REGISTRY``, so TPP's hint-fault path takes
#: its slot).
ZOO_POLICIES = ("memtis", "hemem", "nomad", "hybridtier", "tpp", "arms",
                "tierbpf")
SWEEP_WORKLOADS = ("silo", "btree", "xsbench", "graph500")
SWEEP_POLICIES = ("memtis", "hemem", "tpp", "nomad", "hybridtier", "arms")
QUEUE_JOBS = 2000

#: Sweep cells are ~0.3M accesses each: large enough that the cold grid
#: and the queue drain take comparable time, small enough that executor,
#: cache and SQLite costs are a visible share of it.
SWEEP_SCALE = ScaleSpec(bytes_per_paper_gb=1 * MIB,
                        accesses_per_paper_gb=5_000,
                        min_bytes=48 * MIB, min_accesses_per_page=20)
#: ``--smoke`` scale for every workload: checks the harness, not speed.
SMOKE_SCALE = ScaleSpec(bytes_per_paper_gb=1 * MIB,
                        accesses_per_paper_gb=2_000,
                        min_bytes=48 * MIB, min_accesses_per_page=10)

#: Result fields that depend on the host, not on the simulation.
HOST_FIELDS = ("wall_seconds", "phase_ns", "from_cache", "observability")


def result_digest(result: SimResult) -> str:
    """sha256 of everything a simulation computed (host fields removed)."""
    doc = result.to_dict()
    for key in HOST_FIELDS:
        doc.pop(key)
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def combined_digest(digests: List[str]) -> str:
    return hashlib.sha256("".join(digests).encode("ascii")).hexdigest()


def sim_stats(results: List[SimResult]) -> Dict[str, float]:
    """Simulated statistics over a rep's results, as exact numbers: a
    speed-only change must leave them identical."""
    accesses = sum(r.metrics.total_accesses for r in results)
    lookups = sum(r.tlb.lookups for r in results)
    return {
        "sim.runtime_ms": sum(r.runtime_ns for r in results) / 1e6,
        "sim.fast_hit_ratio": (
            sum(r.metrics.total_fast_hits for r in results) / accesses
            if accesses else 0.0),
        "sim.tlb_miss_ratio": (
            sum(r.tlb.misses for r in results) / lookups if lookups else 0.0),
        "sim.migration_mb": sum(r.migration.traffic_bytes
                                for r in results) / 1e6,
    }


@dataclass
class RepResult:
    """What one rep did, timed with tracing off unless a recorder ran."""

    wall_s: float
    accesses: int
    ops: int
    failures: List[str]
    digest: str
    sim_stats: Dict[str, float]
    #: Workload-specific timings and counts (see each ``run``).
    detail: Dict[str, Any] = field(default_factory=dict)
    setup_s: float = 0.0

    @property
    def failed(self) -> int:
        return len(self.failures)


class _Expectations:
    """Per-op digests from the first rep; later reps must match them."""

    def __init__(self) -> None:
        self._digests: Dict[str, str] = {}

    def check(self, op: str, digest: str) -> Optional[str]:
        expected = self._digests.setdefault(op, digest)
        if digest != expected:
            return f"{op}: digest {digest[:12]} != first rep {expected[:12]}"
        return None


class SimulationWorkload:
    """Workloads that build simulations in setup and run them in turn."""

    def __init__(self) -> None:
        self.expect = _Expectations()

    def build(self, rep_dir: str) -> List[Tuple[str, Simulation, int]]:
        """``[(op label, simulation, expected access count)]``."""
        raise NotImplementedError

    def setup(self, rep_dir: str,
              recorder: Optional[SpanRecorder] = None):
        sims = self.build(rep_dir)
        if recorder is not None:
            for _label, sim, _expected in sims:
                instrument_simulation(recorder, sim)
        return sims

    def close(self, sims) -> None:
        pass

    def run(self, sims, recorder: Optional[SpanRecorder] = None) -> RepResult:
        results, digests, failures = [], [], []
        run_s: Dict[str, float] = {}
        for label, sim, expected in sims:
            start = time.perf_counter()
            try:
                result = sim.run()
            except Exception:
                run_s[label] = time.perf_counter() - start
                failures.append(f"{label}: {traceback.format_exc()}")
                continue
            run_s[label] = time.perf_counter() - start
            results.append(result)
            digest = result_digest(result)
            digests.append(digest)
            accesses = int(result.metrics.total_accesses)
            problem = (
                f"{label}: {accesses} accesses, expected {expected}"
                if accesses != expected else self.expect.check(label, digest)
            )
            if problem:
                failures.append(problem)
        return RepResult(
            wall_s=sum(run_s.values()),
            accesses=sum(int(r.metrics.total_accesses) for r in results),
            ops=len(sims),
            failures=failures,
            digest=combined_digest(digests),
            sim_stats=sim_stats(results),
            detail={
                "run_s": run_s,
                "pebs_samples": sum(r.sampler_stats.get("total_samples", 0.0)
                                    for r in results),
                "cascade_pages": sum(r.migration.cascade_pages
                                     for r in results),
            },
        )


class Replay(SimulationWorkload):
    """MEMTIS on a 2-tier 1:8 machine replaying a recorded silo trace in
    1k-access events (setup records the trace, opens it and builds the
    simulation)."""

    def __init__(self, seed: int, smoke: bool, macro_batch: int):
        super().__init__()
        self.seed = seed
        self.scale = SMOKE_SCALE if smoke else ScaleSpec(**TRACE_SCALE)
        self.macro_batch = macro_batch

    def build(self, rep_dir: str):
        path = os.path.join(rep_dir, "trace.npz")
        stats = record_trace(make_workload("silo", self.scale), path,
                             seed=self.seed)
        workload = TraceWorkload(path, event_accesses=TRACE_EVENT_ACCESSES)
        machine = MachineSpec.from_ratio(workload.total_bytes, ratio="1:8")
        sim = Simulation(workload, make_policy("memtis"), machine,
                         seed=self.seed, macro_batch=self.macro_batch)
        return [("memtis", sim, int(stats["accesses"]))]


class Zoo(SimulationWorkload):
    """Live ``phaseflip`` on the 3-tier ``dram-cxl-nvm`` preset under
    each zoo policy, back to back, with ``RunSpec`` defaults."""

    def __init__(self, seed: int, smoke: bool):
        super().__init__()
        scale = SMOKE_SCALE if smoke else DEFAULT_SCALE
        self.specs = [RunSpec("phaseflip", policy, scale=scale, seed=seed,
                              machine_preset="dram-cxl-nvm")
                      for policy in ZOO_POLICIES]

    def build(self, rep_dir: str):
        sims = []
        for spec in self.specs:
            sim = spec.build()
            sims.append((spec.policy, sim, sim.workload.total_accesses))
        return sims


@dataclass
class _SweepState:
    grid: List[RunSpec]
    cache: ResultCache
    queue: JobQueue
    queued: int


class SweepGrid:
    """(a) ``run_sweep`` over a grid with a fresh result cache, (b) the
    same sweep again, all cache hits, (c) a fresh ``JobQueue`` holding
    ``QUEUE_JOBS`` specs claimed and completed from one process until it
    drains.  Setup builds the specs, the cache directory and the queue,
    and enqueues."""

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        self.expect = _Expectations()
        workloads = SWEEP_WORKLOADS[:2] if smoke else SWEEP_WORKLOADS
        policies = SWEEP_POLICIES[:2] if smoke else SWEEP_POLICIES
        self.scale = SMOKE_SCALE if smoke else SWEEP_SCALE
        #: Grid cells (workload, policy, seed); tests may append cells.
        self.cells = [(w, p, s) for w in workloads for p in policies
                      for s in (seed, seed + 1)]
        self.queue_jobs = 200 if smoke else QUEUE_JOBS
        self.jobs = min(2, os.cpu_count() or 1)
        self._accesses = {
            w: make_workload(w, self.scale).total_accesses for w in workloads
        }

    def setup(self, rep_dir: str, recorder: Optional[SpanRecorder] = None):
        grid = [RunSpec(w, p, scale=self.scale, seed=s)
                for w, p, s in self.cells]
        queued = [RunSpec("silo", "memtis", scale=self.scale,
                          seed=self.seed + 2 + i)
                  for i in range(self.queue_jobs)]
        cache = ResultCache(os.path.join(rep_dir, "cache"))
        queue = JobQueue(queue_path(os.path.join(rep_dir, "queue")))
        if recorder is not None:
            for op in ("get", "put"):
                recorder.wrap(cache, op, f"sim.cache.{op}")
            for op in ("enqueue", "claim", "complete"):
                recorder.wrap(queue, op, f"service.queue.{op}")
        report = queue.enqueue(queued, cache=None)
        return _SweepState(grid, cache, queue, report.queued)

    def _sweep(self, grid, cache, recorder):
        if recorder is None:
            return run_sweep(grid, jobs=self.jobs, cache=cache)
        return recorder.call("sim.sweep.run_sweep", run_sweep, grid,
                             jobs=self.jobs, cache=cache)

    def close(self, state: _SweepState) -> None:
        state.queue.close()

    def run(self, state: _SweepState,
            recorder: Optional[SpanRecorder] = None) -> RepResult:
        failures: List[str] = []
        start = time.perf_counter()
        cold = self._sweep(state.grid, state.cache, recorder)
        cells_s = time.perf_counter() - start
        start = time.perf_counter()
        warm = self._sweep(state.grid, state.cache, recorder)
        warm_s = time.perf_counter() - start

        results, digests = [], []
        for spec in state.grid:
            label = f"{spec.workload}/{spec.policy}/{spec.seed}"
            outcome = cold[spec]
            if not outcome.ok or outcome.from_cache:
                failures.append(f"cold {label}: "
                                f"{outcome.error or 'served from cache'}")
                failures.append(f"warm {label}: cold cell failed")
                continue
            results.append(outcome.result)
            digest = result_digest(outcome.result)
            digests.append(digest)
            accesses = int(outcome.result.metrics.total_accesses)
            expected = self._accesses.get(spec.workload)
            problem = (
                f"cold {label}: {accesses} accesses, expected {expected}"
                if accesses != expected else self.expect.check(label, digest)
            )
            if problem:
                failures.append(problem)
            again = warm[spec]
            if not (again.ok and again.from_cache
                    and result_digest(again.result) == digest):
                failures.append(f"warm {label}: not the cold result")

        claim_s, drain_s, queue_failures = self._drain(state)
        failures.extend(queue_failures)
        return RepResult(
            wall_s=cells_s + warm_s + drain_s,
            accesses=sum(int(r.metrics.total_accesses) for r in results),
            ops=2 * len(state.grid) + self.queue_jobs,
            failures=failures,
            digest=combined_digest(digests),
            sim_stats=sim_stats(results),
            detail={
                "cells": len(state.grid),
                "cells_s": cells_s,
                "warm_s": warm_s,
                "drain_s": drain_s,
                "cell_busy_s": sum(r.wall_seconds for r in results),
                "jobs": self.jobs,
                "cache_hits": state.cache.stats.hits,
                "cache_lookups": state.cache.stats.hits
                + state.cache.stats.misses,
                "claim_s": claim_s,
            },
        )

    def _drain(self, state: _SweepState):
        """Claim+complete every queued job; per-claim latency in s."""
        queue, worker = state.queue, "bench"
        failures: List[str] = []
        if state.queued != self.queue_jobs:
            failures.append(f"enqueue queued {state.queued} of "
                            f"{self.queue_jobs} jobs")
        claim_s: List[float] = []
        start = time.perf_counter()
        for i in range(self.queue_jobs):
            try:
                t0 = time.perf_counter()
                job = queue.claim(worker, lease_s=600.0)
                claim_s.append(time.perf_counter() - t0)
                if job is None:
                    failures.extend(f"claim {j}: queue empty"
                                    for j in range(i, self.queue_jobs))
                    break
                if not queue.complete(job.key, worker):
                    failures.append(f"complete {job.key[:12]}: refused")
            except Exception:
                failures.append(f"claim {i}: {traceback.format_exc()}")
        drain_s = time.perf_counter() - start
        done = queue.counts()[DONE]
        if done != self.queue_jobs:
            failures.append(f"queue ended with {done} done, "
                            f"expected {self.queue_jobs}")
        return claim_s, drain_s, failures


def make(name: str, seed: int, smoke: bool):
    """The workload called ``name`` (see ``BENCHMARK.json``)."""
    if name == "replay_macro":
        return Replay(seed, smoke, macro_batch=MACRO_BATCH)
    if name == "replay_small_batches":
        return Replay(seed, smoke, macro_batch=0)
    if name == "zoo_phaseflip_3tier":
        return Zoo(seed, smoke)
    if name == "sweep_grid":
        return SweepGrid(seed, smoke)
    raise ValueError(f"unknown workload {name!r}")
