"""Top-level command line: ``python -m repro <command>``.

Commands:

* ``run``      -- one workload x policy configuration, with the
                  normalised-performance summary; ``--trace`` captures
                  per-cell structured traces, ``--counters`` dumps the
                  observability counter registry;
* ``list``     -- available workloads, policies, experiments;
* ``snapshots``-- list/inspect epoch checkpoints written by
                  ``run --snapshot-every N`` (resume with ``--resume``);
* ``trace``    -- with ``--out``, run one configuration with structured
                  tracing enabled and export the events (Chrome
                  ``trace_event`` / JSONL / ASCII); legacy
                  ``--record``/``--replay`` of workload ``.npz`` streams
                  still work;
* ``top``      -- live ASCII dashboard over a sweep directory
                  (``run --heartbeat DIR``, or a service directory):
                  queue state plus worker progress; ``--snapshot``
                  prints one frame for CI logs, ``--openmetrics`` emits
                  the exposition-format text instead; ``--stale-after``
                  detects sweeps whose workers died (exit code 3);
* ``service``  -- persistent sweep service: ``submit`` enqueues RunSpec
                  batches into a SQLite job queue, ``start`` runs
                  pull-based worker processes under the supervisor that
                  replaces dead ones (plus an optional HTTP status
                  API), ``status``/``drain`` inspect and wait.

The per-figure regenerators live under ``python -m repro.experiments``.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.analysis.tables import format_table
from repro.experiments.__main__ import add_execution_args, apply_execution_args
from repro.experiments.common import EXPERIMENT_REGISTRY
from repro import snapshot
from repro.obs.tracer import CATEGORIES
from repro.policies.registry import policy_names
from repro.sim import cache as result_cache
from repro.sim.machine import (
    DEFAULT_SCALE,
    MACHINE_PRESETS,
    MachineSpec,
    ScaleSpec,
)
from repro.sim.runner import RunSpec, normalized_performance
from repro.sim.sweep import (
    TraceConfig,
    raise_failures,
    run_sweep,
    timing_summary,
)
from repro.workloads.registry import make_workload, workload_names

QUICK_SCALE = ScaleSpec(
    bytes_per_paper_gb=1024 * 1024,
    accesses_per_paper_gb=40_000,
    min_bytes=48 * 1024 * 1024,
    min_accesses_per_page=60,
)


def _scale(args) -> ScaleSpec:
    return QUICK_SCALE if getattr(args, "quick", False) else DEFAULT_SCALE


def _parse_events(value):
    """``--events migrate,split`` -> validated category tuple (or None)."""
    if not value:
        return None
    events = tuple(c.strip() for c in value.split(",") if c.strip())
    unknown = sorted(set(events) - set(CATEGORIES))
    if unknown:
        raise SystemExit(
            f"unknown event categories {unknown}; "
            f"expected a subset of {list(CATEGORIES)}"
        )
    return events


def _trace_config(args) -> TraceConfig:
    """Build the per-cell TraceConfig for ``repro run --trace``.

    An explicit directory wins; otherwise traces land under the result
    cache (``<cache_dir>/traces``), or ``./traces`` with caching off.
    """
    directory = args.trace
    if not directory:
        cache = result_cache.resolve_cache(result_cache.DEFAULT)
        base = cache.cache_dir if cache is not None else "."
        directory = os.path.join(base, "traces")
    return TraceConfig(
        directory=directory,
        level=args.level,
        categories=_parse_events(args.events),
    )


def cmd_run(args) -> int:
    scale = _scale(args)
    kind = "cxl" if args.cxl else "nvm"
    apply_execution_args(args)
    machine_desc = args.machine_preset or kind
    print(f"running {args.policy} on {args.workload} "
          f"@ {args.ratio} ({machine_desc}) ...")
    if args.snapshot_dir:
        # Via the environment (not snapshot.configure) so sweep worker
        # processes resolve the same store.
        os.environ["REPRO_SNAPSHOT_DIR"] = args.snapshot_dir
    spec = RunSpec(args.workload, args.policy, ratio=args.ratio,
                   capacity_kind=kind, scale=scale, seed=args.seed,
                   machine_preset=args.machine_preset,
                   macro_batch=args.macro_batch,
                   check=args.check, snapshot_every=args.snapshot_every,
                   resume=args.resume,
                   timeseries_every=args.timeseries)
    trace = _trace_config(args) if args.trace is not None else None
    heartbeat = None
    if args.heartbeat:
        from repro.obs.heartbeat import HeartbeatConfig

        heartbeat = HeartbeatConfig(directory=args.heartbeat)
    # The sweep executor runs the policy and its baseline in parallel
    # with --jobs 2, and serves both from the persistent cache on
    # repeated invocations.
    specs = [spec] if args.no_baseline else [spec, spec.baseline_spec()]
    outcomes = run_sweep(specs, jobs=args.jobs, trace=trace,
                         heartbeat=heartbeat)
    raise_failures(outcomes)
    result = outcomes[spec].result
    rows = [
        ["simulated runtime", f"{result.runtime_ns / 1e6:.1f} ms"],
        ["fast-tier hit ratio", f"{result.fast_hit_ratio * 100:.1f}%"],
        ["migration traffic", f"{result.migration.traffic_bytes / 1e6:.1f} MB"],
        ["huge-page splits", f"{result.migration.splits}"],
        ["TLB miss ratio", f"{result.tlb.miss_ratio * 100:.1f}%"],
        ["final RSS", f"{result.final_rss_bytes / 1e6:.1f} MB"],
    ]
    if not args.no_baseline:
        baseline = outcomes[spec.baseline_spec()].result
        rows.insert(0, ["normalised performance",
                        f"{normalized_performance(result, baseline):.3f}x"])
    print(format_table(["metric", "value"], rows))
    timing = timing_summary(outcomes)
    print(f"sweep timing: {timing['executed']} executed "
          f"({timing['wall_total_s']:.2f}s wall, "
          f"mean {timing['wall_mean_s']:.2f}s), "
          f"{timing['cached']} cached, {timing['resumed']} resumed, "
          f"{timing['failed']} failed")
    if spec.snapshot_every > 0 or spec.resume:
        store = snapshot.resolve_store(snapshot.DEFAULT)
        if store is not None:
            epochs = store.epochs(spec)
            print(f"checkpoints: {store.spec_dir(spec.cache_key())} "
                  f"({len(epochs)} stored, latest epoch "
                  f"{epochs[-1] if epochs else '-'})")
    if trace is not None:
        for s in specs:
            tag = " [from cache: no events]" if outcomes[s].from_cache else ""
            print(f"trace: {trace.cell_path(s)}{tag}")
    if args.counters:
        counters = result.observability.get("counters", {})
        print(format_table(
            ["counter", "value"],
            [[name, f"{value}"] for name, value in sorted(counters.items())],
        ))
    return 0


def cmd_snapshots(args) -> int:
    """List or inspect stored epoch checkpoints (sidecar manifests only)."""
    store = (snapshot.SnapshotStore(args.dir) if args.dir
             else snapshot.resolve_store(snapshot.DEFAULT))
    if store is None:
        print("snapshot store disabled", file=sys.stderr)
        return 2
    manifests = store.manifests()
    if args.action == "list":
        if not manifests:
            print(f"no checkpoints under {store.directory}")
            return 0
        by_key = {}
        for m in manifests:
            by_key.setdefault(m.get("spec_key", "?"), []).append(m)
        rows = []
        for key, entries in sorted(by_key.items()):
            spec = entries[-1].get("spec", {})
            rows.append([
                key[:16],
                spec.get("workload", "?"),
                spec.get("policy", "?"),
                spec.get("ratio", "?"),
                str(len(entries)),
                str(entries[-1].get("epoch", "?")),
                str(entries[-1].get("events_consumed", "?")),
            ])
        print(format_table(
            ["key", "workload", "policy", "ratio", "checkpoints",
             "latest epoch", "events"], rows,
        ))
        return 0
    # inspect: match a (possibly abbreviated) spec key
    matches = sorted({
        m["spec_key"] for m in manifests
        if m.get("spec_key", "").startswith(args.key)
    })
    if not matches:
        print(f"no checkpoints matching key {args.key!r} "
              f"under {store.directory}", file=sys.stderr)
        return 2
    if len(matches) > 1:
        print(f"ambiguous key {args.key!r}: matches "
              + ", ".join(k[:16] for k in matches), file=sys.stderr)
        return 2
    selected = [m for m in manifests if m["spec_key"] == matches[0]]
    if args.epoch is not None:
        selected = [m for m in selected if m.get("epoch") == args.epoch]
        if not selected:
            print(f"no checkpoint at epoch {args.epoch}", file=sys.stderr)
            return 2
    else:
        selected = [selected[-1]]  # latest
    import json as _json

    print(_json.dumps(selected[0], indent=2, sort_keys=True))
    return 0


def cmd_list(_args) -> int:
    print("workloads:   " + ", ".join(workload_names()))
    print("policies:    " + ", ".join(policy_names()))
    print("ratios:      1:2, 1:8, 1:16, 2:1")
    print("experiments: " + ", ".join(sorted(EXPERIMENT_REGISTRY))
          + "   (python -m repro.experiments <id>)")
    return 0


def cmd_trace(args) -> int:
    from repro.workloads.trace import TraceWorkload, record_trace

    if args.out:
        from repro.obs import Observability
        from repro.obs.export import ascii_timeline, export_tracer

        obs = Observability.traced(
            level=args.level, events=_parse_events(args.events)
        )
        spec = RunSpec(args.workload, args.policy, ratio=args.ratio,
                       scale=_scale(args), seed=args.seed)
        print(f"tracing {args.policy} on {args.workload} "
              f"@ {args.ratio} (level={args.level}) ...")
        # Tracing needs the events, not just the result: always execute
        # (the cache only stores the summary, never the event buffer).
        result = spec.build(obs=obs).run()
        exported = export_tracer(
            obs.tracer, args.out, fmt=args.fmt, phase_ns=result.phase_ns,
            meta={"spec": spec.to_dict(), "from_cache": False},
        )
        stats = obs.tracer.stats()
        by_cat = obs.tracer.counts_by_category()
        print(f"{stats['emitted']} events emitted "
              f"({stats['dropped']} dropped), {exported} exported "
              f"to {args.out}")
        if by_cat:
            print("  " + ", ".join(
                f"{cat}={count}" for cat, count in sorted(by_cat.items())
            ))
        if args.ascii:
            print(ascii_timeline(obs.tracer.events()))
        return 0
    if args.record:
        workload = make_workload(args.workload, _scale(args))
        stats = record_trace(workload, args.record, seed=args.seed)
        print(f"recorded {stats['accesses']} accesses "
              f"({stats['events']} events) to {args.record}")
        return 0
    if args.replay:
        from repro.policies.registry import make_policy
        from repro.sim.engine import Simulation

        workload = TraceWorkload(args.replay,
                                 event_accesses=args.event_accesses)
        machine = MachineSpec.from_ratio(workload.total_bytes, ratio=args.ratio)
        sim = Simulation(workload, make_policy(args.policy), machine,
                         seed=args.seed, macro_batch=args.macro_batch)
        result = sim.run()
        print(f"replayed {result.metrics.total_accesses} accesses under "
              f"{args.policy}: hit ratio {result.fast_hit_ratio * 100:.1f}%, "
              f"runtime {result.runtime_ns / 1e6:.1f} ms")
        return 0
    print("trace: pass --out PATH (structured trace export), "
          "--record PATH or --replay PATH", file=sys.stderr)
    return 2


def cmd_top(args) -> int:
    """Dashboard (or OpenMetrics text) over a sweep directory."""
    import time as _time

    from repro.analysis.top import render_service_dashboard
    from repro.obs.openmetrics import service_exposition
    from repro.service import build_status, queue_path

    def frame(status) -> str:
        if args.openmetrics:
            return service_exposition(status)
        return render_service_dashboard(status, width=args.width)

    try:
        if args.snapshot or args.openmetrics:
            if not os.path.exists(queue_path(args.dir)):
                print(f"top: no sweep queue at {queue_path(args.dir)}",
                      file=sys.stderr)
                return 2
            print(frame(build_status(args.dir, args.stale_after)))
            return 0
        while True:
            if os.path.exists(queue_path(args.dir)):
                status = build_status(args.dir, args.stale_after)
                text = frame(status)
            else:
                status, text = None, f"(waiting for a sweep in {args.dir})"
            # ANSI clear + home: a cheap full-screen refresh.
            sys.stdout.write("\x1b[2J\x1b[H" + text + "\n")
            sys.stdout.flush()
            if status is not None and status["drained"]:
                return 0
            if status is not None and status["stalled"]:
                print(
                    f"sweep stalled: no progress in {args.stale_after:.0f}s "
                    "with work left (dead workers?)",
                    file=sys.stderr,
                )
                return 3
            _time.sleep(max(args.interval, 0.1))
    except KeyboardInterrupt:
        return 0
    except BrokenPipeError:
        # Reader went away (e.g. `repro top ... | head`): exit quietly.
        try:
            sys.stdout.close()
        except BrokenPipeError:
            pass
        return 0


def _service_specs(args):
    """Build the RunSpec batch for ``service submit``."""
    import itertools
    import json as _json

    specs = []
    if args.specs:
        with open(args.specs) as fh:
            for entry in _json.load(fh):
                specs.append(RunSpec.from_dict(entry))
    scale = _scale(args)
    kind = "cxl" if args.cxl else "nvm"
    for workload, policy, ratio, seed in itertools.product(
        args.workloads, args.policies, args.ratios, args.seeds
    ):
        specs.append(RunSpec(
            workload, policy, ratio=ratio, capacity_kind=kind, scale=scale,
            seed=seed, max_accesses=args.max_accesses,
            snapshot_every=args.snapshot_every,
        ))
    if args.with_baselines:
        specs.extend([spec.baseline_spec() for spec in list(specs)])
    return specs


def cmd_service(args) -> int:
    """``repro service submit|start|status|drain DIR``."""
    import json as _json
    import time as _time

    from repro.service import JobQueue, build_status, queue_path

    if args.action == "submit":
        specs = _service_specs(args)
        if not specs:
            print("service submit: nothing to enqueue (pass --workloads/"
                  "--policies or --specs FILE)", file=sys.stderr)
            return 2
        with JobQueue(queue_path(args.dir)) as queue:
            report = queue.enqueue(specs, max_attempts=args.max_attempts)
            counts = queue.counts()
        print(f"submitted {report.total} specs to {args.dir}: "
              f"{report.queued} queued, {report.cached} cached, "
              f"{report.deduped} deduplicated, {report.requeued} requeued")
        print("queue: " + ", ".join(
            f"{n} {state}" for state, n in counts.items() if n))
        return 0

    if not os.path.exists(queue_path(args.dir)):
        print(f"service: no queue at {queue_path(args.dir)} "
              "(run `service submit` first)", file=sys.stderr)
        return 2

    if args.action == "start":
        from repro.service import supervise
        from repro.service.server import serve_in_child

        api = None
        if args.port is not None:
            # Serve the status API from a child forked before any worker:
            # the supervisor forks replacements later, and a fork while a
            # status thread is inside SQLite hands a worker a held lock.
            api, (host, port) = serve_in_child(args.dir, host=args.host,
                                               port=args.port)
            print(f"status API: http://{host}:{port}/ "
                  f"(/status /metrics /ascii)", flush=True)
        workers = max(1, args.workers)
        print(f"starting {workers} worker(s) on {args.dir} "
              f"(lease {args.lease:.0f}s"
              + (", drain-and-exit)" if args.drain else ")"), flush=True)
        try:
            supervise(args.dir, workers, drain=args.drain,
                      lease_s=args.lease, poll_s=args.poll)
        except KeyboardInterrupt:
            pass  # the supervisor has stopped the workers
        finally:
            if api is not None:
                api.terminate()
                api.join()
        with JobQueue(queue_path(args.dir)) as queue:
            counts = queue.counts()
        print("queue: " + ", ".join(
            f"{n} {state}" for state, n in counts.items() if n))
        return 1 if counts.get("failed") else 0

    if args.action == "status":
        status = build_status(args.dir, stale_after=args.stale_after)
        if args.json:
            print(_json.dumps(status, indent=2, sort_keys=True))
        else:
            from repro.analysis.top import render_service_dashboard

            print(render_service_dashboard(status, width=args.width))
        return 1 if status["jobs"].get("failed") else 0

    if args.action == "drain":
        deadline = (_time.time() + args.timeout
                    if args.timeout is not None else None)
        while True:
            with JobQueue(queue_path(args.dir)) as queue:
                if queue.drained():
                    counts = queue.counts()
                    print("drained: " + ", ".join(
                        f"{n} {state}" for state, n in counts.items() if n))
                    return 1 if counts.get("failed") else 0
            if deadline is not None and _time.time() > deadline:
                print(f"drain: queue still live after {args.timeout:.0f}s",
                      file=sys.stderr)
                return 2
            _time.sleep(max(args.poll, 0.05))

    raise AssertionError(f"unknown service action {args.action!r}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro",
                                     description=__doc__)
    sub = parser.add_subparsers(dest="command")

    p_run = sub.add_parser("run", help="run one workload x policy")
    p_run.add_argument("workload", choices=workload_names())
    p_run.add_argument("policy", choices=policy_names())
    p_run.add_argument("--ratio", default="1:8",
                       choices=["1:2", "1:8", "1:16", "2:1"])
    p_run.add_argument("--cxl", action="store_true",
                       help="CXL capacity tier instead of NVM")
    p_run.add_argument("--machine-preset", default=None,
                       choices=sorted(MACHINE_PRESETS),
                       help="N-tier machine preset (overrides the two-tier "
                            "ratio machine; the ratio still sizes DRAM)")
    p_run.add_argument("--quick", action="store_true")
    p_run.add_argument("--seed", type=int, default=42)
    p_run.add_argument("--macro-batch", type=int, default=0, metavar="N",
                       help="coalesce consecutive access events into "
                            "macro-batches of ~N accesses before the engine "
                            "hot path (0 = one event per batch; changes "
                            "sampling cadence, so it is part of the result "
                            "identity)")
    p_run.add_argument("--no-baseline", action="store_true",
                       help="skip the all-capacity normalisation run")
    p_run.add_argument("--trace", nargs="?", const="", metavar="DIR",
                       help="capture a structured trace per sweep cell "
                            "(default DIR: <cache_dir>/traces)")
    p_run.add_argument("--counters", action="store_true",
                       help="print the observability counter registry")
    p_run.add_argument("--check", nargs="?", const="strict", default=None,
                       choices=["off", "end", "epoch", "strict"],
                       help="run the invariant sanitizer (bare --check = "
                            "strict: every batch; checked runs always "
                            "execute instead of hitting the cache)")
    p_run.add_argument("--snapshot-every", type=int, default=0, metavar="N",
                       help="checkpoint the full simulator state every N "
                            "epochs (0 = never); resumable with --resume")
    p_run.add_argument("--resume", action="store_true",
                       help="resume from the latest stored checkpoint for "
                            "this configuration (bit-identical to an "
                            "uninterrupted run)")
    p_run.add_argument("--snapshot-dir", metavar="DIR",
                       help="checkpoint store location (default: "
                            "$REPRO_SNAPSHOT_DIR or <cache_dir>/snapshots)")
    p_run.add_argument("--heartbeat", metavar="DIR", default=None,
                       help="keep the sweep's queue and per-cell progress "
                            "records in DIR (watch live with "
                            "`python -m repro top DIR`)")
    p_run.add_argument("--timeseries", type=int, default=0, metavar="N",
                       help="record a per-epoch metrics time series every "
                            "N epochs into the result's observability "
                            "block (0 = off; part of the result identity)")
    p_run.add_argument("--events", metavar="CATS",
                       help="comma-separated trace categories "
                            f"({','.join(CATEGORIES)})")
    p_run.add_argument("--level", default="info",
                       choices=["debug", "info", "warn"],
                       help="trace severity floor (default: info)")
    add_execution_args(p_run)
    p_run.set_defaults(fn=cmd_run)

    p_list = sub.add_parser("list", help="list workloads/policies/experiments")
    p_list.set_defaults(fn=cmd_list)

    p_snap = sub.add_parser(
        "snapshots", help="list/inspect stored epoch checkpoints"
    )
    snap_sub = p_snap.add_subparsers(dest="action", required=True)
    p_snap_list = snap_sub.add_parser("list", help="one row per spec")
    p_snap_list.add_argument("--dir", metavar="DIR",
                             help="checkpoint store (default: "
                                  "$REPRO_SNAPSHOT_DIR or "
                                  "<cache_dir>/snapshots)")
    p_snap_list.set_defaults(fn=cmd_snapshots)
    p_snap_inspect = snap_sub.add_parser(
        "inspect", help="print one checkpoint's manifest as JSON"
    )
    p_snap_inspect.add_argument("key", help="spec key (prefix ok)")
    p_snap_inspect.add_argument("--epoch", type=int, default=None,
                                help="epoch number (default: latest)")
    p_snap_inspect.add_argument("--dir", metavar="DIR")
    p_snap_inspect.set_defaults(fn=cmd_snapshots)

    p_trace = sub.add_parser(
        "trace",
        help="export a structured run trace, or record/replay a workload",
    )
    p_trace.add_argument("--workload", default="silo", choices=workload_names())
    p_trace.add_argument("--policy", default="memtis", choices=policy_names())
    p_trace.add_argument("--ratio", default="1:8")
    p_trace.add_argument("--out", metavar="PATH",
                         help="run with tracing enabled and export events "
                              "(.json Chrome/Perfetto, .jsonl, .txt ASCII)")
    p_trace.add_argument("--events", metavar="CATS",
                         help="comma-separated trace categories "
                              f"({','.join(CATEGORIES)})")
    p_trace.add_argument("--level", default="info",
                         choices=["debug", "info", "warn"],
                         help="trace severity floor (default: info)")
    p_trace.add_argument("--fmt", choices=["chrome", "jsonl", "ascii"],
                         help="export format (default: by --out extension)")
    p_trace.add_argument("--ascii", action="store_true",
                         help="also print an ASCII event timeline")
    p_trace.add_argument("--record", metavar="PATH")
    p_trace.add_argument("--replay", metavar="PATH")
    p_trace.add_argument("--macro-batch", type=int, default=0, metavar="N",
                         help="replay with the macro-batch coalescer "
                              "(~N accesses per engine batch, 0 = one event "
                              "per batch)")
    p_trace.add_argument("--event-accesses", type=int, default=None,
                         metavar="N",
                         help="re-chunk trace replay into events of at most "
                              "N accesses (default: recorded granularity)")
    p_trace.add_argument("--quick", action="store_true")
    p_trace.add_argument("--seed", type=int, default=42)
    p_trace.set_defaults(fn=cmd_trace)

    p_top = sub.add_parser(
        "top", help="live dashboard over a sweep directory"
    )
    p_top.add_argument("dir", help="sweep directory (run --heartbeat DIR, "
                                   "or a service directory)")
    p_top.add_argument("--snapshot", action="store_true",
                       help="print one frame and exit (CI logs)")
    p_top.add_argument("--openmetrics", action="store_true",
                       help="emit OpenMetrics exposition text instead of "
                            "the dashboard (implies one-shot)")
    p_top.add_argument("--interval", type=float, default=2.0, metavar="S",
                       help="refresh period in live mode (default: 2s)")
    p_top.add_argument("--width", type=int, default=80,
                       help="dashboard width in columns (default: 80)")
    p_top.add_argument("--stale-after", type=float, default=300.0,
                       metavar="S",
                       help="mark running cells with no progress for S "
                            "seconds as stalled; the live loop exits 3 once "
                            "the whole sweep has gone quiet with work left "
                            "(default: 300; 0 disables)")
    p_top.set_defaults(fn=cmd_top)

    p_service = sub.add_parser(
        "service",
        help="persistent sweep service: job queue + pull-based workers",
    )
    svc = p_service.add_subparsers(dest="action", required=True)

    p_submit = svc.add_parser("submit", help="enqueue a RunSpec batch")
    p_submit.add_argument("dir", help="service directory (queue + "
                                      "progress records)")
    p_submit.add_argument("--workloads", nargs="+", default=[],
                          choices=workload_names(), metavar="W")
    p_submit.add_argument("--policies", nargs="+", default=[],
                          choices=policy_names(), metavar="P")
    p_submit.add_argument("--ratios", nargs="+", default=["1:8"],
                          choices=["1:2", "1:8", "1:16", "2:1"], metavar="R")
    p_submit.add_argument("--seeds", nargs="+", type=int, default=[42],
                          metavar="N")
    p_submit.add_argument("--cxl", action="store_true",
                          help="CXL capacity tier instead of NVM")
    p_submit.add_argument("--quick", action="store_true")
    p_submit.add_argument("--max-accesses", type=int, default=None,
                          metavar="N")
    p_submit.add_argument("--snapshot-every", type=int, default=1,
                          metavar="N",
                          help="checkpoint every N epochs so preempted jobs "
                               "resume instead of recomputing (default: 1; "
                               "0 disables)")
    p_submit.add_argument("--max-attempts", type=int, default=3, metavar="N",
                          help="failures, or worker deaths under `service "
                               "start`, before a job is marked failed")
    p_submit.add_argument("--specs", metavar="FILE",
                          help="also enqueue a JSON list of RunSpec dicts")
    p_submit.add_argument("--with-baselines", action="store_true",
                          help="also enqueue each spec's all-capacity "
                               "baseline (deduplicated)")
    p_submit.set_defaults(fn=cmd_service)

    p_start = svc.add_parser(
        "start", help="run supervised worker processes (and optionally "
                      "the status API)"
    )
    p_start.add_argument("dir")
    p_start.add_argument("--workers", type=int, default=2, metavar="N")
    p_start.add_argument("--lease", type=float, default=30.0, metavar="S",
                         help="claim lease; a killed worker's job re-queues "
                              "after at most this long (default: 30s)")
    p_start.add_argument("--poll", type=float, default=0.5, metavar="S",
                         help="idle poll period (default: 0.5s)")
    p_start.add_argument("--drain", action="store_true",
                         help="exit once the queue holds no live jobs "
                              "(default: keep serving new submissions)")
    p_start.add_argument("--port", type=int, default=None, metavar="PORT",
                         help="also serve the HTTP status API "
                              "(0 = ephemeral port; default: no HTTP)")
    p_start.add_argument("--host", default="127.0.0.1")
    p_start.set_defaults(fn=cmd_service)

    p_status = svc.add_parser("status", help="one-shot queue/worker/cell view")
    p_status.add_argument("dir")
    p_status.add_argument("--json", action="store_true",
                          help="machine-readable dump instead of the "
                               "dashboard")
    p_status.add_argument("--width", type=int, default=80)
    p_status.add_argument("--stale-after", type=float, default=300.0,
                          metavar="S",
                          help="mark quiet cells stalled (default: 300; "
                               "0 disables)")
    p_status.set_defaults(fn=cmd_service)

    p_drain = svc.add_parser(
        "drain", help="wait until the queue holds no live jobs"
    )
    p_drain.add_argument("dir")
    p_drain.add_argument("--timeout", type=float, default=None, metavar="S")
    p_drain.add_argument("--poll", type=float, default=0.5, metavar="S")
    p_drain.set_defaults(fn=cmd_service)

    args = parser.parse_args(argv)
    if not getattr(args, "fn", None):
        parser.print_help()
        return 0
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
