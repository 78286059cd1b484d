#!/usr/bin/env python3
"""Repository benchmark: what a run and a sweep cost in host time.

Usage (from the repository root)::

    python3 perfbench/bench.py [--workload NAME] [--seed S] [--reps N]
                               [--seconds T] [--trace 0|1] [--smoke]
                               [--out FILE]

Each workload (``BENCHMARK.json`` lists them and says why each exists)
runs in its own subprocess, so ``VmHWM`` isolates its peak RSS.  The
subprocess does one untimed warm-up rep (lazy imports and the page cache
made it ~15% slow), then timed reps with tracing off: ``--reps`` of them,
or as many as fit in ``--seconds`` (at least ``MIN_TIMED_REPS``).  With
``--trace 1`` (the default) one more rep runs with every layer wrapped
in spans (see ``layers.py``) and gives the per-layer numbers and the
tracing overhead.  Every rep sets up from scratch and checks its outputs
(see ``scenarios.py``).

The command prints, for every metric, its workload, median, quartiles,
sample count and unit, then the result digests; the last line of stdout
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``
holding ``BENCHMARK.json``'s end-to-end metrics (``--trace 0``) or its
per-layer metrics (``--trace 1``).  ``--out`` also writes every sample,
the layer table and the raw spans.  The exit code is 1 if any op failed
a check, 2 if the sources are missing or a workload crashed (then no
result line is printed).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BENCHMARKS = os.path.join(ROOT, "benchmarks")
#: Scratch space for traces, caches and queues; removed after each run.
WORK = os.path.join(HERE, ".work")

WORKLOADS = ("replay_macro", "replay_small_batches", "zoo_phaseflip_3tier",
             "sweep_grid")
DEFAULT_REPS = 5
MIN_TIMED_REPS = 3
#: ``setup_s`` is the median of at least this many set-ups when extra
#: set-up-only reps fit in ``SETUP_EXTRA_S``.
SETUP_SAMPLES = 15
SETUP_EXTRA_S = 2.0
#: A child that outlives this is hung; it is killed and the run fails.
CHILD_TIMEOUT_S = 900
#: Claims pooled per queue depth for ``claim_ms_at_<depth>``.
DEPTH_WINDOW = 20


# -- statistics ----------------------------------------------------------------


def summarize(samples, value=None):
    """Median (or ``value``), quartiles and count of ``samples``."""
    s = sorted(samples)
    median = statistics.median(s) if s else 0.0
    q1, q3 = (statistics.quantiles(s, n=4)[::2] if len(s) >= 2
              else (median, median))
    return {"value": median if value is None else value,
            "q1": q1, "q3": q3, "n": len(s)}


def percentile(samples, pct):
    """``pct``-th percentile (1..99) by ``statistics.quantiles``."""
    if len(samples) < 2:
        return samples[0] if samples else 0.0
    return statistics.quantiles(samples, n=100)[pct - 1]


# -- child: one workload -------------------------------------------------------


def _one_rep(scenario, workdir, index, recorder=None, run=True):
    """Set up one rep in its own directory and, if ``run``, run it.

    Returns ``(setup_s, RepResult or None, spans opened during setup)``.
    """
    rep_dir = os.path.join(workdir, f"rep{index}")
    os.makedirs(rep_dir)
    # The previous rep's simulations are garbage now; collecting them
    # here keeps that work out of this rep's timings and its peak RSS.
    gc.collect()
    state = rep = None
    try:
        start = time.perf_counter()
        state = scenario.setup(rep_dir, recorder)
        setup_s = time.perf_counter() - start
        setup_spans = len(recorder.names) if recorder is not None else 0
        if run:
            rep = scenario.run(state, recorder)
            rep.setup_s = setup_s
    finally:
        if state is not None:
            scenario.close(state)
        shutil.rmtree(rep_dir, ignore_errors=True)
    return setup_s, rep, setup_spans


def _layer_metrics(recorder, setup_spans, traced, timed):
    """Per-layer metrics: span-based ones from the traced rep, queue
    latencies and cells/s from the plain reps (tracing off).  Layers a
    workload bypasses read 0."""
    from layers import MIGRATION_OPS
    from scenarios import ZOO_POLICIES

    m = {}
    layers = recorder.summary()

    def span(name):
        return layers.get(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})

    def one(name, value, unit):
        m[name] = (summarize([value]), unit)

    detail = traced.detail
    one("trace.overhead_frac",
        traced.wall_s / statistics.median(r.wall_s for r in timed) - 1.0,
        "fraction")
    # Spans opened during the timed work (not setup) against its wall:
    # ~1 where the root spans cover the whole rep.
    run_self = sum(row["self_s"]
                   for row in recorder.summary(first=setup_spans).values())
    one("trace.attributed_frac",
        run_self / traced.wall_s if traced.wall_s else 0.0, "fraction")
    one("sim.engine.self_s", span("sim.engine")["self_s"], "s")
    spans = ["workloads.events", "mem.tlb.access_substream",
             "core.sampler.process_samples", "core.migrator.tick",
             *(f"mem.migration.{op}" for op in MIGRATION_OPS),
             "mem.address_space.record_touch",
             "mem.address_space.demand_map_many", "sim.cost.memory_ns",
             "pebs.sampler.sample", "sim.metrics.record_batch",
             "sim.metrics.maybe_snapshot", "sim.cache.get", "sim.cache.put",
             "service.queue.enqueue", "service.queue.claim",
             "service.queue.complete"]
    for name in spans:
        one(f"{name}.calls", span(name)["calls"], "count")
        one(f"{name}.busy_s", span(name)["busy_s"], "s")
    one("core.migrator.tick.self_s", span("core.migrator.tick")["self_s"], "s")
    fold = span("core.sampler.process_samples")
    one("core.sampler.process_samples.us_per_call",
        fold["busy_s"] / fold["calls"] * 1e6 if fold["calls"] else 0.0, "us")
    one("mem.migration.cascade_pages", detail.get("cascade_pages", 0), "count")
    one("pebs.samples_per_kacc",
        detail.get("pebs_samples", 0.0) / traced.accesses * 1e3
        if traced.accesses else 0.0, "samples/kacc")
    run_s = detail.get("run_s", {})
    for policy in ZOO_POLICIES:
        for hook in ("on_batch", "on_tick"):
            one(f"policies.{policy}.{hook}.busy_s",
                span(f"policies.{policy}.{hook}")["busy_s"], "s")
        one(f"policies.{policy}.run_s", run_s.get(policy, 0.0), "s")

    one("sim.sweep.run_sweep.busy_s", span("sim.sweep.run_sweep")["busy_s"],
        "s")
    cell_busy = detail.get("cell_busy_s", 0.0)
    one("sim.sweep.cell_busy_s", cell_busy, "s")
    one("sim.sweep.overhead_s",
        detail["cells_s"] - cell_busy / detail["jobs"]
        if "cells_s" in detail else 0.0, "s")
    m["sim.sweep.cells_per_sec"] = (summarize(
        [r.detail["cells"] / r.detail["cells_s"] for r in timed
         if "cells_s" in r.detail]), "cells/s")
    lookups = detail.get("cache_lookups", 0)
    one("sim.cache.hit_ratio",
        detail.get("cache_hits", 0) / lookups if lookups else 0.0, "fraction")

    per_rep = [r.detail.get("claim_s", []) for r in timed]
    pooled = sorted(c * 1e3 for claims in per_rep for c in claims)
    for depth in (100, 2000):
        window = []
        for claims in per_rep:
            first = max(0, len(claims) - depth)
            window.extend(c * 1e3 for c in claims[first:first + DEPTH_WINDOW])
        m[f"service.queue.claim_ms_at_{depth}"] = (summarize(window), "ms")
    m["service.queue.claim_p50_ms"] = (summarize(pooled), "ms")
    m["service.queue.claim_p99_ms"] = (
        summarize(pooled, value=percentile(pooled, 99)), "ms")
    return m, layers


def child_main(args) -> int:
    from layers import SpanRecorder
    from record_bench import _vm_hwm_mb
    import scenarios

    scenario = scenarios.make(args.child, seed=args.seed, smoke=args.smoke)
    attempted = failed = 0
    failures = []
    reps_started = 0

    def rep(recorder=None, run=True):
        nonlocal attempted, failed, reps_started
        setup_s, result, setup_spans = _one_rep(
            scenario, args.workdir, reps_started, recorder, run)
        reps_started += 1
        if result is None:
            return setup_s, None, setup_spans
        attempted += result.ops
        failed += result.failed
        failures.extend(result.failures)
        print(f"  {args.child} rep {reps_started - 1}"
              f"{' (traced)' if recorder else ''}: run {result.wall_s:.3f} s,"
              f" setup {setup_s:.3f} s, {result.failed} failed",
              file=sys.stderr, flush=True)
        return setup_s, result, setup_spans

    warmup = rep()[1]
    timed = []
    start = time.perf_counter()
    while True:
        if args.seconds > 0:
            if (len(timed) >= MIN_TIMED_REPS
                    and time.perf_counter() - start >= args.seconds):
                break
        elif len(timed) >= args.reps:
            break
        timed.append(rep()[1])
    peak_rss_mb = _vm_hwm_mb()
    # Cheap set-ups (the zoo's is ~3 ms) are noisy; sample more of them
    # without running, within a small time budget.
    setups = [r.setup_s for r in timed]
    start = time.perf_counter()
    while (len(setups) < SETUP_SAMPLES
           and time.perf_counter() - start < SETUP_EXTRA_S):
        setups.append(rep(run=False)[0])

    metrics = {
        "accesses_per_sec": (summarize(
            [r.accesses / r.wall_s for r in timed]), "acc/s"),
        "setup_s": (summarize(setups), "s"),
        "peak_rss_mb": (summarize([peak_rss_mb]), "MB"),
    }
    # Every op's digest was already checked against the warm-up's, so a
    # differing rep (traced or not) shows up as failed ops; these are
    # printed so that two commits can be compared exactly.
    digests = {"plain": warmup.digest}
    trace = None
    if args.trace:
        recorder = SpanRecorder()
        _, traced, setup_spans = rep(recorder)
        digests["traced"] = traced.digest
        layer_metrics, layers = _layer_metrics(recorder, setup_spans,
                                               traced, timed)
        metrics.update(layer_metrics)
        trace = {"layers": layers, "wall_s": traced.wall_s,
                 "setup_s": traced.setup_s}
        if args.spans:
            trace["spans"] = recorder.to_dict()
    metrics["failed_ops_frac"] = (
        summarize([failed / attempted if attempted else 1.0]), "fraction")

    doc = {
        "workload": args.child,
        "seed": args.seed,
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:20],
        "digests": digests,
        "sim_stats": warmup.sim_stats,
        "metrics": {name: dict(stats, unit=unit)
                    for name, (stats, unit) in metrics.items()},
        "samples": {
            "wall_s": [r.wall_s for r in timed],
            "setup_s": setups,
            "accesses": [r.accesses for r in timed],
            "detail": [{k: v for k, v in r.detail.items() if k != "claim_s"}
                       for r in timed],
        },
        "trace": trace,
    }
    with open(args.result, "w") as fh:
        json.dump(doc, fh)
    return 0


# -- parent: orchestration and report ------------------------------------------


def _run_child(workload, args, workdir):
    child_dir = os.path.join(workdir, workload)
    os.makedirs(child_dir)
    result_path = os.path.join(workdir, f"{workload}.json")
    cmd = [sys.executable, os.path.abspath(__file__), "--child", workload,
           "--workdir", child_dir, "--result", result_path,
           "--seed", str(args.seed), "--reps", str(args.reps),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        cmd.append("--smoke")
    if args.out:
        cmd.append("--spans")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC, BENCHMARKS] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                             else []))
    # Keep the default result cache, snapshot store and temporary files
    # inside the run's scratch directory (the workloads pass their own
    # caches anyway).
    env["REPRO_CACHE_DIR"] = os.path.join(workdir, "default-cache")
    env["REPRO_SNAPSHOT_DIR"] = os.path.join(workdir, "default-snapshots")
    env["TMPDIR"] = child_dir
    print(f"running {workload} ...", file=sys.stderr, flush=True)
    proc = subprocess.run(cmd, env=env, stdout=sys.stderr,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} exited with {proc.returncode}")
    with open(result_path) as fh:
        return json.load(fh)


def _print_report(docs):
    print(f"{'workload':<22} {'metric':<44} {'median':>13} {'q1':>13} "
          f"{'q3':>13} {'n':>6}  unit")
    for doc in docs:
        for name, row in doc["metrics"].items():
            print(f"{doc['workload']:<22} {name:<44} {row['value']:>13.6g} "
                  f"{row['q1']:>13.6g} {row['q3']:>13.6g} {row['n']:>6}  "
                  f"{row['unit']}")
    print()
    for doc in docs:
        stats = " ".join(f"{k}={v!r}" for k, v in doc["sim_stats"].items())
        digests = " ".join(f"{k}={v}" for k, v in doc["digests"].items())
        print(f"{doc['workload']}: seed={doc['seed']} {digests}")
        print(f"{doc['workload']}: {stats}")
        for failure in doc["failures"]:
            print(f"{doc['workload']}: FAILED {failure.strip()}")


def _result_line(docs, declared):
    """The last stdout line: ``declared`` metrics, keyed by name (or by
    ``<workload>.<name>`` when several workloads ran)."""
    metrics = {}
    for doc in docs:
        for spec in declared:
            row = doc["metrics"][spec["name"]]
            if row["unit"] != spec["unit"]:
                raise ValueError(f"{spec['name']}: unit {row['unit']!r} "
                                 f"!= declared {spec['unit']!r}")
            key = (spec["name"] if len(docs) == 1
                   else f"{doc['workload']}.{spec['name']}")
            metrics[key] = {"value": row["value"], "unit": row["unit"]}
    attempted = sum(doc["attempted"] for doc in docs)
    failed = sum(doc["failed"] for doc in docs)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def parse_args(argv, default_seed):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload (default: all, in turn)")
    parser.add_argument("--seed", type=int, default=default_seed,
                        help="workload seed (default %(default)s; confirm "
                             "claims on held-out seed 11)")
    parser.add_argument("--reps", type=int, default=DEFAULT_REPS,
                        help="timed reps per workload (default %(default)s)")
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="instead of --reps, time reps until this many "
                             f"seconds have passed (at least {MIN_TIMED_REPS})")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1,
                        help="1: add a traced rep and report per-layer "
                             "metrics on the last line; 0: report "
                             "end-to-end metrics (default %(default)s)")
    parser.add_argument("--smoke", action="store_true",
                        help="shrink every workload to check the harness "
                             "(numbers are not comparable to full runs)")
    parser.add_argument("--out", metavar="FILE",
                        help="write every sample, layer and span as JSON")
    parser.add_argument("--child", choices=WORKLOADS, help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    parser.add_argument("--result", help=argparse.SUPPRESS)
    parser.add_argument("--spans", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.reps < 1:
        parser.error("--reps must be >= 1")
    return args


def main(argv=None) -> int:
    for needed in (os.path.join(SRC, "repro"),
                   os.path.join(BENCHMARKS, "record_bench.py"),
                   os.path.join(ROOT, "BENCHMARK.json")):
        if not os.path.exists(needed):
            print(f"bench: {needed} is missing; run from a full checkout",
                  file=sys.stderr)
            return 2
    sys.path[:0] = [SRC, BENCHMARKS]
    from record_bench import SEED

    args = parse_args(argv, SEED)
    if args.child:
        return child_main(args)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=WORK)
    try:
        docs = [_run_child(w, args, workdir)
                for w in ([args.workload] if args.workload else WORKLOADS)]
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    _print_report(docs)
    line = _result_line(docs, declared)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"args": vars(args), "workloads": docs, "result": line},
                      fh, indent=1)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
