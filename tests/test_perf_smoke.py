"""Perf smoke: the vectorized fold kernel must actually be fast, the
disabled tracer must be nearly free, and the macro-batch coalescer must
actually fuse events into fewer batch round trips.

Coarse guards, not benchmarks (those live in ``benchmarks/``):

* folding a fixed 100k-sample stream through the vectorized kernel must
  beat the scalar reference by at least 3x (observed ~two orders of
  magnitude, so 3x only trips on a real regression, e.g. the dispatch
  silently falling back to the scalar path);
* the disabled-tracing guards threaded through the engine and daemons
  must cost under 5% of a 100k-access run even at a 10x-inflated guard
  count, and so must recording the per-epoch series at ten times the
  run's epoch count;
* a ~2M-access fine-grained memtis replay with the coalescer fusing
  must make at least 16x fewer engine batches than ``macro_batch=0``
  (one event per batch): an exact count (the full-scale gate is the
  radar's call-count ratio over ``perfbench/``'s ``replay_macro`` and
  ``replay_small_batches``).
"""

import os
import tempfile
import time

import numpy as np
import pytest

from repro import kernels
from repro.core.config import MemtisConfig
from repro.core.sampler import KSampled
from repro.obs import MetricsTimeSeries
from repro.obs.tracer import DEBUG, NULL_TRACER
from repro.pebs.sampler import SampleBatch
from repro.policies.registry import make_policy
from repro.sim.engine import Simulation
from repro.sim.machine import MachineSpec, ScaleSpec
from repro.sim.runner import RunSpec
from repro.workloads.registry import make_workload
from repro.workloads.trace import TraceWorkload, record_trace

from conftest import TEST_SCALE, make_context

MB = 1024 * 1024

pytestmark = pytest.mark.skipif(
    kernels.active_mode() in (kernels.SCALAR, kernels.VALIDATE),
    reason="REPRO_SCALAR_KERNELS pins the scalar or validate path",
)


def _fold_seconds(mode: str) -> float:
    """Time one fixed 100k-sample fold on a fresh machine under ``mode``.

    The stream is regenerated from a fixed seed against the fresh
    region's bounds, so every call folds the identical sample batch.
    """
    with kernels.forced(mode):
        ctx = make_context(fast_mb=16, cap_mb=96)
        config = MemtisConfig().resolved(16 * MB, 112 * MB)
        ks = KSampled(config, ctx)
        region = ctx.space.alloc_region(32 * MB)
        ks.on_region_alloc(region)
        rng = np.random.default_rng(0)
        vpns = rng.integers(region.base_vpn, region.end_vpn, 100_000)
        samples = SampleBatch(vpns.astype(np.int64),
                              rng.random(len(vpns)) < 0.3)
        start = time.perf_counter()
        ks.process_samples(samples)
        elapsed = time.perf_counter() - start
    assert ks.total_samples == len(samples.vpn)
    return elapsed


def test_vectorized_fold_at_least_3x_faster_than_scalar():
    scalar = _fold_seconds(kernels.SCALAR)
    vectorized = _fold_seconds(kernels.VECTORIZED)
    assert vectorized > 0
    ratio = scalar / vectorized
    assert ratio >= 3.0, (
        f"vectorized fold only {ratio:.1f}x faster "
        f"({scalar:.3f}s vs {vectorized:.3f}s)"
    )


#: Interleaved repetitions of each overhead gate: each rep times one
#: run and then one measurement of the guarded code, so a slow spell of
#: the host hits both sides alike; each side keeps its best rep.
OVERHEAD_REPS = 7


def _best_of_interleaved(spec, *measures):
    """Best run seconds, then the best ``measure(sim)`` seconds of each
    measure, over the reps."""
    run_s, measured_s = [], [[] for _ in measures]
    for _ in range(OVERHEAD_REPS):
        sim = spec.build()
        start = time.perf_counter()
        sim.run(max_accesses=spec.max_accesses)
        run_s.append(time.perf_counter() - start)
        for measure, samples in zip(measures, measured_s):
            samples.append(measure(sim))
    return (min(run_s), *(min(samples) for samples in measured_s))


def test_disabled_tracer_overhead_under_5_percent():
    """Disabled-tracing guards must stay below 5% of a 100k-access run.

    A run-vs-run wall-clock comparison cannot isolate the guards (they
    are compiled into every emit site either way), so this measures the
    guard pattern directly: 10,000 iterations of the exact disabled-path
    code -- one ``if tracer.enabled`` branch plus one ``enabled_for``
    call -- which over-counts the guard sites a 100k-access run actually
    executes (a few per engine batch and daemon wakeup, i.e. hundreds)
    by more than an order of magnitude.  The loop's own cost (a bare
    10,000-iteration loop, about a quarter of the guarded loop's time)
    is not guard cost -- the engine's guards sit in no loop of their
    own -- so it is timed alongside and subtracted.  The run, guard and
    bare-loop reps are interleaved and each takes its best.
    """
    spec = RunSpec("silo", "memtis", scale=TEST_SCALE, seed=11,
                   max_accesses=100_000)
    tracer = NULL_TRACER

    def guarded_loop(_sim):
        start = time.perf_counter()
        for _ in range(10_000):
            if tracer.enabled:
                tracer.emit("migrate", "promote", vpn=1)
            tracer.enabled_for("sample", DEBUG)
        return time.perf_counter() - start

    def bare_loop(_sim):
        start = time.perf_counter()
        for _ in range(10_000):
            pass
        return time.perf_counter() - start

    run_s, guarded_s, bare_s = _best_of_interleaved(spec, guarded_loop,
                                                    bare_loop)
    guard_s = guarded_s - bare_s
    ratio = guard_s / run_s
    assert ratio < 0.05, (
        f"disabled tracer guards cost {ratio * 100:.1f}% of a 100k-access "
        f"run ({guard_s * 1e3:.2f}ms vs {run_s * 1e3:.1f}ms)"
    )


def test_series_recording_overhead_under_5_percent():
    """Recording the always-on per-epoch series must stay below 5% of a
    100k-access run.

    Each rep records ten times as many rows as the run closed epochs,
    each row as the engine records it: the policy's ``stats()`` plus a
    snapshot of the run's counter registry.  The recording reps are
    interleaved with the run reps and each side takes its best.
    """
    spec = RunSpec("silo", "memtis", scale=TEST_SCALE, seed=11,
                   max_accesses=100_000)

    def record_rows(sim):
        rows = 10 * len(sim.metrics.series)
        assert rows > 0
        series = MetricsTimeSeries()
        start = time.perf_counter()
        for row in range(rows):
            series.record(float(row), 1, 1, 1, 1, sim.policy.stats(),
                          sim.obs.counters)
        return time.perf_counter() - start

    run_s, record_s = _best_of_interleaved(spec, record_rows)
    ratio = record_s / run_s
    assert ratio < 0.05, (
        f"recording the series costs {ratio * 100:.1f}% of a 100k-access "
        f"run ({record_s * 1e3:.2f}ms vs {run_s * 1e3:.1f}ms)"
    )


#: ~2.3M silo accesses -- big enough that the per-event fixed cost
#: dominates the disabled path, small enough for a smoke test.
_MACRO_SMOKE_SCALE = ScaleSpec(
    bytes_per_paper_gb=1024 * 1024,
    accesses_per_paper_gb=40_000,
    min_bytes=48 * 1024 * 1024,
    min_accesses_per_page=60,
)


def test_macro_coalescer_fuses_events_into_fewer_batches():
    """Fused macro-batches must cut the engine's batch round trips on a
    ~2M-access fine-grained memtis replay: one event per batch
    (``macro_batch=0``) must make at least 16x as many as the coalescer.

    The trace is re-chunked to 8k-access events -- the granularity a
    real PEBS-style trace arrives at -- so one event per batch pays the
    Python round trip ~280 times while the coalescer fuses down to ~9
    macro-batches: 262144 / 8192 = 32 events per batch at most, and the
    gate asks for half of that.  A broken coalescer reads ~1.

    Counts are exact for a seed.  A wall-clock ratio would also move
    with how fast one small batch runs, so a cheaper per-event path
    could fail it with the coalescer intact.  The radar gates the same
    property on ``perfbench/``'s replays, as the ratio of TLB substream
    calls.
    """
    from repro.sim.macro import DEFAULT_MACRO_BATCH

    def replay(macro_batch: int):
        workload = TraceWorkload(path, event_accesses=8_192)
        machine = MachineSpec.from_ratio(workload.total_bytes, ratio="1:8")
        sim = Simulation(workload, make_policy("memtis"), machine, seed=3,
                         macro_batch=macro_batch)
        result = sim.run()
        assert result.metrics.total_accesses >= 2_000_000
        return sim._batches_processed, result.metrics.total_accesses

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "smoke.npz")
        record_trace(make_workload("silo", _MACRO_SMOKE_SCALE), path, seed=7)
        per_event, accesses = replay(0)
        coalesced, fused_accesses = replay(DEFAULT_MACRO_BATCH)
    assert fused_accesses == accesses
    ratio = per_event / coalesced
    assert ratio >= 16, (
        f"macro coalescer fused only {ratio:.2f} events per batch "
        f"({per_event} batches per-event vs {coalesced} coalesced)"
    )
