#!/usr/bin/env python
"""Record the engine-throughput trajectory (``BENCH_7.json``).

Four pinned scenarios measure what the macro-batch engine is for:

* ``synthetic_2m_per_event`` / ``synthetic_2m_macro`` -- a live ~2.3M
  access silo/memtis run, one event per batch (``macro_batch=0``) vs
  256k-access fused batches.  Generation is on the hot path here, so
  the speedup is bounded by the generator.
* ``trace_10m_per_event`` / ``trace_10m_macro`` -- a recorded ~10M
  access silo trace replayed at 1k-access granularity (the cadence a
  PEBS-style collector produces).  This is the headline: the coalescer
  must hold >= 3x over one event per batch (the acceptance gate;
  observed ~5x).

Each scenario runs in its own subprocess so ``VmHWM`` isolates its peak
RSS (Linux ``ru_maxrss`` leaks across fork+exec).  Results are pinned
by scale and seed; wall-clock fields are the measurement.

Usage::

    python benchmarks/record_bench.py --out benchmarks/BENCH_7.json
    python benchmarks/record_bench.py --compare benchmarks/BENCH_7.json new.json

``--compare`` normalises each scenario's throughput by the in-file
``synthetic_2m_per_event`` baseline before diffing, so a uniformly
faster or slower machine cancels out; it fails (exit 1) when any
normalised throughput regresses by more than 20%, or when the headline
trace macro/per-event ratio drops below 3x.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time

FORMAT = 1
#: Normalisation anchor for cross-machine comparison.
BASELINE_SCENARIO = "synthetic_2m_per_event"
#: Allowed normalised-throughput regression.
TOLERANCE = 0.20
#: Acceptance gate: trace replay with the coalescer vs without.
HEADLINE = ("trace_10m_macro", "trace_10m_per_event", 3.0)

#: Pinned scales (do not change without re-recording the trajectory).
SYNTH_SCALE = dict(bytes_per_paper_gb=1024 * 1024,
                   accesses_per_paper_gb=40_000,
                   min_bytes=48 * 1024 * 1024,
                   min_accesses_per_page=60)      # silo -> ~2.3M accesses
TRACE_SCALE = dict(bytes_per_paper_gb=1024 * 1024,
                   accesses_per_paper_gb=175_000,
                   min_bytes=48 * 1024 * 1024,
                   min_accesses_per_page=60)      # silo -> ~10.2M accesses
MACRO_BATCH = 262_144
TRACE_EVENT_ACCESSES = 1_024
SEED = 7

SCENARIOS = {
    "synthetic_2m_per_event": dict(kind="synthetic", macro_batch=0),
    "synthetic_2m_macro": dict(kind="synthetic", macro_batch=MACRO_BATCH),
    "trace_10m_per_event": dict(kind="trace", macro_batch=0),
    "trace_10m_macro": dict(kind="trace", macro_batch=MACRO_BATCH),
}


def _vm_hwm_mb() -> float:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    return 0.0


def run_scenario(name: str, trace_path: str) -> dict:
    """Execute one scenario in-process and return its measurements."""
    from repro.policies.registry import make_policy
    from repro.sim.engine import Simulation
    from repro.sim.machine import MachineSpec, ScaleSpec
    from repro.workloads.registry import make_workload
    from repro.workloads.trace import TraceWorkload

    cfg = SCENARIOS[name]
    if cfg["kind"] == "synthetic":
        workload = make_workload("silo", ScaleSpec(**SYNTH_SCALE))
    else:
        workload = TraceWorkload(trace_path,
                                 event_accesses=TRACE_EVENT_ACCESSES)
    machine = MachineSpec.from_ratio(workload.total_bytes, ratio="1:8")
    sim = Simulation(workload, make_policy("memtis"), machine, seed=SEED,
                     macro_batch=cfg["macro_batch"])
    start = time.perf_counter()
    result = sim.run()
    wall = time.perf_counter() - start
    accesses = int(result.metrics.total_accesses)
    return {
        "accesses": accesses,
        "wall_seconds": round(wall, 4),
        "accesses_per_sec": round(accesses / wall),
        "peak_rss_mb": round(_vm_hwm_mb(), 1),
        "phase_ns": {k: round(v) for k, v in result.phase_ns.items()},
    }


def record(out_path: str) -> dict:
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(repo, "src") + os.pathsep \
        + env.get("PYTHONPATH", "")
    with tempfile.TemporaryDirectory() as tmp:
        trace_path = os.path.join(tmp, "bench_trace.npz")
        print("recording 10M-access silo trace ...", flush=True)
        subprocess.run(
            [sys.executable, os.path.abspath(__file__),
             "--record-trace", trace_path],
            env=env, check=True,
        )
        scenarios = {}
        for name in SCENARIOS:
            print(f"running {name} ...", flush=True)
            out = subprocess.run(
                [sys.executable, os.path.abspath(__file__),
                 "--scenario", name, "--trace", trace_path],
                env=env, check=True, capture_output=True, text=True,
            )
            scenarios[name] = json.loads(out.stdout)
            print(f"  {scenarios[name]['accesses_per_sec']:,} accesses/s, "
                  f"peak {scenarios[name]['peak_rss_mb']} MB", flush=True)
    doc = {
        "format": FORMAT,
        "config": {
            "synth_scale": SYNTH_SCALE,
            "trace_scale": TRACE_SCALE,
            "macro_batch": MACRO_BATCH,
            "trace_event_accesses": TRACE_EVENT_ACCESSES,
            "seed": SEED,
        },
        "scenarios": scenarios,
    }
    with open(out_path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {out_path}")
    return doc


def compare(old_path: str, new_path: str) -> int:
    """Diff two recordings via the shared ``repro.analysis.trajectory``
    radar (same thresholds; this entry point predates it and is kept
    for one-off use)."""
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.join(repo, "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    from repro.analysis.trajectory import compare_docs, format_report

    with open(old_path) as fh:
        old = json.load(fh)
    with open(new_path) as fh:
        new = json.load(fh)
    report = compare_docs(old, new, tolerance=TOLERANCE, headline=HEADLINE)
    print(format_report(report))
    for failure in report["failures"]:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 0 if report["ok"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", metavar="PATH",
                        help="record all scenarios and write the JSON")
    parser.add_argument("--compare", nargs=2,
                        metavar=("COMMITTED", "CURRENT"),
                        help="diff two recordings (normalised, 20%% "
                             "tolerance); exit 1 on regression")
    parser.add_argument("--scenario", choices=sorted(SCENARIOS),
                        help=argparse.SUPPRESS)  # subprocess entry
    parser.add_argument("--trace", help=argparse.SUPPRESS)
    parser.add_argument("--record-trace", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.record_trace:
        from repro.sim.machine import ScaleSpec
        from repro.workloads.registry import make_workload
        from repro.workloads.trace import record_trace

        stats = record_trace(
            make_workload("silo", ScaleSpec(**TRACE_SCALE)),
            args.record_trace, seed=SEED,
        )
        assert stats["accesses"] >= 10_000_000, stats
        return 0
    if args.scenario:
        json.dump(run_scenario(args.scenario, args.trace), sys.stdout)
        return 0
    if args.compare:
        return compare(*args.compare)
    if args.out:
        record(args.out)
        return 0
    parser.print_help()
    return 2


if __name__ == "__main__":
    sys.exit(main())
