"""Observability layer: tracer, counter registry, exporters, integration.

Covers the three contracts the layer promises:

* **filtering and bounds** -- severity/category gating, ring-buffer
  capacity with drop accounting, disabled tracers as strict no-ops;
* **lossless export** -- JSONL round-trips every event; the Chrome
  ``trace_event`` document is structurally valid (metadata records,
  instants, epoch/phase duration slices);
* **zero interference** -- the sweep's per-cell trace files annotate
  cache hits instead of re-running them; that a traced run equals the
  untraced one, but for the tracer summary, is the conformance matrix's
  ``traced`` axis (``tests/conformance.py``).
"""

import json

import pytest

from repro.obs import (
    DEBUG,
    INFO,
    WARN,
    CounterRegistry,
    Observability,
    TraceEvent,
    Tracer,
    make_tracer,
    parse_level,
)
from repro.obs.export import (
    ascii_timeline,
    chrome_trace,
    export_tracer,
    read_events_jsonl,
    write_events_jsonl,
)
from repro.sim.metrics import MetricsCollector
from repro.sim.runner import RunSpec
from repro.sim.sweep import CellOutcome, TraceConfig, run_sweep, timing_summary

from conftest import TEST_SCALE


# -- tracer --------------------------------------------------------------------


class TestTracer:
    def test_disabled_tracer_is_a_no_op(self):
        tracer = Tracer(enabled=False)
        tracer.emit("migrate", "promote", vpn=1)
        assert len(tracer) == 0
        assert tracer.emitted == 0
        assert not tracer.enabled_for("migrate")

    def test_level_filtering(self):
        tracer = Tracer(enabled=True, level=INFO)
        tracer.emit("sample", "sample_fold", DEBUG, processed=10)
        tracer.emit("migrate", "promote", INFO, vpn=1)
        tracer.emit("sample", "buffer_overflow", WARN, dropped=3)
        assert [e.name for e in tracer.events()] == [
            "promote", "buffer_overflow"
        ]

    def test_category_filtering(self):
        tracer = Tracer(enabled=True, categories=("migrate", "split"))
        tracer.emit("migrate", "promote", vpn=1)
        tracer.emit("threshold", "threshold_update")
        tracer.emit("split", "split", hpn=2)
        assert tracer.counts_by_category() == {"migrate": 1, "split": 1}
        assert tracer.enabled_for("split")
        assert not tracer.enabled_for("cooling")

    def test_ring_buffer_drops_oldest_and_counts(self):
        tracer = Tracer(enabled=True, capacity=4)
        for i in range(10):
            tracer.emit("engine", "demand_map", pages=i)
        events = tracer.events()
        assert len(events) == 4
        assert [e.args["pages"] for e in events] == [6, 7, 8, 9]
        assert tracer.emitted == 10
        assert tracer.dropped == 6

    def test_virtual_clock_and_explicit_timestamp(self):
        tracer = Tracer(enabled=True)
        tracer.now_ns = 1234.0
        tracer.emit("cooling", "cooling")
        tracer.emit("epoch", "epoch", ts_ns=1000.0, dur_ns=234.0)
        assert tracer.events()[0].ts_ns == 1234.0
        assert tracer.events()[1].ts_ns == 1000.0

    def test_parse_level(self):
        assert parse_level("debug") == DEBUG
        assert parse_level("WARN") == WARN
        assert parse_level(15) == 15
        with pytest.raises(ValueError):
            parse_level("loud")

    def test_make_tracer_rejects_unknown_category(self):
        with pytest.raises(ValueError, match="unknown event categories"):
            make_tracer(events=["migrate", "telepathy"])

    def test_stats_summary(self):
        tracer = make_tracer(level="debug", events=("migrate",), capacity=8)
        tracer.emit("migrate", "promote", vpn=1)
        stats = tracer.stats()
        assert stats["enabled"] and stats["level"] == "debug"
        assert stats["categories"] == ["migrate"]
        assert stats["emitted"] == stats["buffered"] == 1


# -- counter registry ----------------------------------------------------------


class TestCounterRegistry:
    def test_counter_gauge_distribution(self):
        reg = CounterRegistry()
        c = reg.counter("ksampled/samples")
        c.inc(5)
        c.inc()
        reg.gauge("ksampled/ehr").set(0.7)
        d = reg.distribution("ksampled/fold")
        d.record(10)
        d.record(20)
        values = reg.as_dict()
        assert values["ksampled/samples"] == 6
        assert values["ksampled/ehr"] == 0.7
        assert values["ksampled/fold"]["mean"] == 15.0
        assert values["ksampled/fold"]["count"] == 2

    def test_get_or_create_is_idempotent_but_kind_checked(self):
        reg = CounterRegistry()
        assert reg.counter("a") is reg.counter("a")
        with pytest.raises(TypeError, match="already registered"):
            reg.gauge("a")

    def test_scoped_registry_prefixes_and_strips(self):
        reg = CounterRegistry()
        scope = reg.scope("policy/memtis")
        scope.counter("promotions").inc(3)
        assert "policy/memtis/promotions" in reg
        assert scope.as_dict() == {"policy/memtis/promotions": 3}
        nested = scope.scope("inner")
        nested.gauge("depth").set(2.0)
        assert reg.names("policy/memtis/inner") == [
            "policy/memtis/inner/depth"
        ]

    def test_counter_value_is_assignable(self):
        c = CounterRegistry().counter("x")
        c.value = 41
        c.inc()
        assert c.value == 42


# -- exporters -----------------------------------------------------------------


def _sample_events():
    return [
        TraceEvent(ts_ns=10.0, cat="migrate", name="promote",
                   level=INFO, args={"vpn": 7, "bytes": 4096}),
        TraceEvent(ts_ns=20.0, cat="epoch", name="epoch",
                   level=INFO, args={"index": 0, "dur_ns": 20.0}),
        TraceEvent(ts_ns=25.0, cat="sample", name="buffer_overflow",
                   level=WARN, args={"dropped": 3}),
    ]


class TestExport:
    def test_jsonl_round_trip(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        events = _sample_events()
        n = write_events_jsonl(path, events, meta={"seed": 42})
        assert n == len(events)
        meta, loaded = read_events_jsonl(path)
        assert meta["seed"] == 42
        assert [e.to_json_dict() for e in loaded] == [
            e.to_json_dict() for e in events
        ]

    def test_chrome_trace_structure(self):
        doc = chrome_trace(
            _sample_events(),
            phase_ns={"access_gen": 100.0, "policy_ns": 50.0},
            meta={"from_cache": False},
        )
        assert doc["displayTimeUnit"] == "ms"
        assert doc["otherData"]["from_cache"] is False
        by_ph = {}
        for record in doc["traceEvents"]:
            by_ph.setdefault(record["ph"], []).append(record)
        # process + 3 thread-name metadata records.
        assert len(by_ph["M"]) == 4
        instants = by_ph["i"]
        assert {r["name"] for r in instants} == {"promote", "buffer_overflow"}
        assert all(r["s"] == "t" for r in instants)
        slices = by_ph["X"]
        epoch = next(r for r in slices if r["name"] == "epoch")
        assert epoch["ts"] == 20.0 / 1e3 and epoch["dur"] == 20.0 / 1e3
        phases = [r for r in slices if r["cat"] == "phase"]
        # Canonical phases (PHASE_ORDER) first, unknown names appended.
        assert [r["name"] for r in phases] == ["policy_ns", "access_gen"]
        assert phases[1]["ts"] == 50.0 / 1e3  # consecutive slices
        # The whole document must be JSON-serialisable (Perfetto input).
        json.dumps(doc)

    def test_ascii_timeline(self):
        art = ascii_timeline(_sample_events(), width=20, height=6)
        assert "M" in art  # migrate bucket marker
        assert ascii_timeline([]).endswith("(no events)")

    def test_export_tracer_infers_format(self, tmp_path):
        tracer = make_tracer()
        tracer.emit("migrate", "promote", vpn=1)
        jsonl = str(tmp_path / "t.jsonl")
        chrome = str(tmp_path / "t.json")
        txt = str(tmp_path / "t.txt")
        assert export_tracer(tracer, jsonl) == 1
        assert export_tracer(tracer, chrome) == 1
        assert export_tracer(tracer, txt) == 1
        meta, events = read_events_jsonl(jsonl)
        assert meta["tracer"]["emitted"] == 1 and len(events) == 1
        assert "traceEvents" in json.load(open(chrome))
        with pytest.raises(ValueError, match="unknown trace export format"):
            export_tracer(tracer, str(tmp_path / "t.bin"), fmt="protobuf")


# -- metrics finalisation (tail snapshot guarantee) ----------------------------


#: An empty registry for collectors driven without an engine.
NO_COUNTERS = CounterRegistry()


class TestMetricsFinalize:
    def test_short_tail_window_is_captured(self):
        m = MetricsCollector(timeline_interval_ns=100.0)
        m.record_batch(10, 5, 50, 0, 0, 0, 0, 0, 0)
        # first full window
        assert m.maybe_snapshot(100.0)
        m.record_row(100.0, 0, 0, {}, NO_COUNTERS)
        m.record_batch(4, 2, 30, 0, 0, 0, 0, 0, 0)
        # 30ns < period
        assert not m.maybe_snapshot(130.0)
        assert m.tail_due(130.0)
        m.record_row(130.0, 0, 0, {}, NO_COUNTERS)
        assert len(m.series) == 2
        assert m.series.now_ns[-1] == 130.0
        assert m.series.window_accesses[-1] == 4

    def test_run_shorter_than_one_period_still_gets_a_point(self):
        m = MetricsCollector(timeline_interval_ns=1e9)
        m.record_batch(7, 3, 40, 0, 0, 0, 0, 0, 0)
        assert not m.maybe_snapshot(40.0)
        assert m.tail_due(40.0)
        m.record_row(40.0, 0, 0, {}, NO_COUNTERS)
        assert len(m.series) == 1

    def test_finalize_does_not_duplicate_a_boundary_snapshot(self):
        m = MetricsCollector(timeline_interval_ns=100.0)
        m.record_batch(10, 5, 100, 0, 0, 0, 0, 0, 0)
        assert m.maybe_snapshot(100.0)
        m.record_row(100.0, 0, 0, {}, NO_COUNTERS)
        # nothing after the row
        assert not m.tail_due(100.0)
        assert len(m.series) == 1

    def test_empty_run_records_nothing(self):
        m = MetricsCollector()
        assert not m.tail_due(0.0)
        assert len(m.series) == 0


# -- end-to-end: what a traced run reports -------------------------------------


def _spec():
    return RunSpec("silo", "memtis", ratio="1:8", scale=TEST_SCALE,
                   seed=11, max_accesses=60_000)


def test_memtis_run_emits_the_advertised_events():
    obs = Observability.traced(level="debug")
    spec = RunSpec("silo", "memtis", ratio="1:8", scale=TEST_SCALE, seed=11)
    result = spec.build(obs=obs).run()
    cats = obs.tracer.counts_by_category()
    for cat in ("migrate", "threshold", "cooling", "epoch", "sample"):
        assert cats.get(cat, 0) > 0, f"no {cat} events on a memtis run"
    counters = result.observability["counters"]
    assert counters["ksampled/samples"] > 0
    assert counters["kmigrated/promoted_pages"] > 0
    assert not any(name.startswith(("engine/", "pebs/")) for name in counters)
    assert result.to_dict()["observability"]["tracer"]["emitted"] > 0


def test_observability_summary_serialises(tmp_path):
    obs = Observability.traced(level="info", events=("migrate",))
    spec = _spec()
    result = spec.build(obs=obs).run(max_accesses=spec.max_accesses)
    json.dumps(result.to_dict())  # whole result stays JSON-safe
    n = export_tracer(obs.tracer, str(tmp_path / "run.json"),
                      phase_ns=result.phase_ns,
                      meta={"spec": spec.to_dict()})
    doc = json.load(open(tmp_path / "run.json"))
    assert doc["otherData"]["spec"]["workload"] == "silo"
    assert n == len([e for e in obs.tracer.events()])


# -- fault and cascade events --------------------------------------------------


def test_fault_injections_emit_tracer_events():
    """Every fault kind surfaces as a WARN event in the ``fault`` track."""
    from repro.check import FaultConfig, FaultInjector

    obs = Observability.traced(level="info", events=("fault",))
    injector = FaultInjector(FaultConfig(
        seed=3, drop_sample_prob=0.3, dup_sample_prob=0.3,
        alloc_fail_prob=0.3, tick_delay_prob=0.3,
    ))
    _spec().build(obs=obs, faults=injector).run(max_accesses=60_000)
    events = obs.tracer.events()
    assert events and all(e.cat == "fault" and e.level >= WARN
                          for e in events)
    names = {e.name for e in events}
    assert {"sample_drop", "sample_dup", "alloc_outage",
            "delayed_tick"} <= names
    # Payloads stay consistent with the injector's own accounting.
    stats = injector.stats
    dropped = sum(e.args["records"] for e in events
                  if e.name == "sample_drop")
    assert dropped == stats["dropped_samples"] > 0
    duplicated = sum(e.args["records"] for e in events
                     if e.name == "sample_dup")
    assert duplicated == stats["duplicated_samples"] > 0
    outages = [e for e in events if e.name == "alloc_outage"]
    assert outages[-1].args["batches"] == stats["alloc_outage_batches"] \
        == len(outages)
    delayed = [e for e in events if e.name == "delayed_tick"]
    assert delayed[-1].args["total"] == stats["delayed_ticks"] == len(delayed)


def test_kill_fault_emits_event_before_raising():
    from repro.check import FaultConfig, FaultInjector, SimulationKilled

    obs = Observability.traced(level="info", events=("fault",))
    injector = FaultInjector(FaultConfig(seed=5, kill_at_epoch=1))
    sim = _spec().build(obs=obs, faults=injector)
    sim.metrics.timeline_interval_ns = 1e6
    with pytest.raises(SimulationKilled):
        sim.run(max_accesses=60_000)
    kills = [e for e in obs.tracer.events() if e.name == "kill"]
    assert len(kills) == 1 and kills[0].args["epoch"] == 1


def test_cascade_demotions_emit_tracer_events():
    """Cross-tier demotion cascades show up in the ``migrate`` track."""
    from repro.sim.engine import Simulation
    from repro.sim.machine import MachineSpec, cxl_spec, dram_spec, nvm_spec
    from repro.policies.registry import make_policy
    from repro.workloads.registry import make_workload

    workload = make_workload("silo", TEST_SCALE)
    small = max(2 * 1024 * 1024, workload.total_bytes // 8)
    machine = MachineSpec.from_tiers([
        dram_spec(small), cxl_spec(small), nvm_spec(2 * workload.total_bytes),
    ])
    obs = Observability.traced(level="info", events=("migrate",))
    sim = Simulation(workload, make_policy("memtis"), machine, seed=11,
                     obs=obs)
    result = sim.run(max_accesses=200_000)
    assert result.migration.cascade_pages > 0, "scenario did not cascade"
    cascades = [e for e in obs.tracer.events() if e.name == "cascade"]
    assert cascades, "cascade demotions left no trace events"
    for event in cascades:
        assert event.args["pages"] > 0 and event.args["bytes"] > 0
        # Spills go strictly downhill on a 3-tier machine.
        assert event.args["spill_tier"] == event.args["dst_tier"] + 1
    # The ring may evict early events; what survives never exceeds the
    # engine's own accounting.
    assert sum(e.args["pages"] for e in cascades) \
        <= result.migration.cascade_pages


# -- exporters carry the generation phase --------------------------------------


def test_exporters_carry_gen_ns_phase(tmp_path):
    """``gen_ns`` (PR 7's generation phase) reaches all three exporters."""
    obs = Observability.traced(level="info", events=("migrate",))
    spec = _spec()
    result = spec.build(obs=obs).run(max_accesses=spec.max_accesses)
    assert "gen_ns" in result.phase_ns
    chrome_path = str(tmp_path / "run.json")
    export_tracer(obs.tracer, chrome_path, phase_ns=result.phase_ns,
                  meta={"spec": spec.to_dict()})
    doc = json.load(open(chrome_path))
    phase_rows = [r for r in doc["traceEvents"]
                  if r.get("cat") == "phase" and r["ph"] == "X"]
    names = [r["name"] for r in phase_rows]
    assert "gen_ns" in names
    # Canonical pipeline order: generation before sampling/policy.
    assert names.index("gen_ns") < names.index("policy_ns")
    # Slices tile the wall-time track: each begins where the previous ended.
    for prev, cur in zip(phase_rows, phase_rows[1:]):
        assert cur["ts"] == pytest.approx(prev["ts"] + prev["dur"])

    jsonl_path = str(tmp_path / "run.jsonl")
    export_tracer(obs.tracer, jsonl_path, fmt="jsonl",
                  phase_ns=result.phase_ns)
    with open(jsonl_path) as fh:
        meta = json.loads(fh.readline())
    assert meta["type"] == "meta"
    assert meta["phase_ns"]["gen_ns"] == pytest.approx(
        float(result.phase_ns["gen_ns"]))

    ascii_path = str(tmp_path / "run.txt")
    export_tracer(obs.tracer, ascii_path, fmt="ascii",
                  phase_ns=result.phase_ns)
    text = open(ascii_path).read()
    assert "wall-time phases (ms)" in text and "gen_ns" in text


# -- sweep integration ---------------------------------------------------------


class TestSweepTracing:
    def test_executed_cell_writes_trace_file(self, tmp_path):
        trace = TraceConfig(directory=str(tmp_path / "traces"),
                            level="debug")
        spec = _spec()
        outcomes = run_sweep([spec], jobs=1, trace=trace)
        assert outcomes[spec].ok and not outcomes[spec].from_cache
        doc = json.load(open(trace.cell_path(spec)))
        assert doc["otherData"]["from_cache"] is False
        assert len(doc["traceEvents"]) > 0

    def test_cached_cell_gets_from_cache_stub(self, tmp_path):
        spec = _spec()
        run_sweep([spec], jobs=1)  # populate the cache, no tracing
        trace = TraceConfig(directory=str(tmp_path / "traces2"))
        outcomes = run_sweep([spec], jobs=1, trace=trace)
        assert outcomes[spec].from_cache
        doc = json.load(open(trace.cell_path(spec)))
        assert doc["otherData"]["from_cache"] is True
        assert doc["traceEvents"] == []

    def test_cached_stub_never_clobbers_a_real_trace(self, tmp_path):
        trace = TraceConfig(directory=str(tmp_path / "traces"))
        spec = _spec()
        run_sweep([spec], jobs=1, trace=trace)
        run_sweep([spec], jobs=1, trace=trace)  # now a cache hit
        doc = json.load(open(trace.cell_path(spec)))
        assert doc["otherData"]["from_cache"] is False
        assert len(doc["traceEvents"]) > 0

    def test_trace_config_rejects_unknown_format(self, tmp_path):
        with pytest.raises(ValueError, match="unknown trace format"):
            TraceConfig(directory=str(tmp_path), fmt="svg")


class TestTimingSummary:
    def test_cached_cells_excluded_from_wall_statistics(self):
        class _R:
            def __init__(self, wall):
                self.wall_seconds = wall

        spec = _spec()
        outcomes = [
            CellOutcome(spec, result=_R(2.0)),
            CellOutcome(spec, result=_R(4.0)),
            CellOutcome(spec, result=_R(0.0), from_cache=True),
            CellOutcome(spec, error="boom"),
        ]
        timing = timing_summary(outcomes)
        assert timing["cells"] == 4
        assert timing["executed"] == 2
        assert timing["cached"] == 1
        assert timing["failed"] == 1
        # A naive mean over all cells would be 1.5; cached zeros are out.
        assert timing["wall_mean_s"] == 3.0
        assert timing["wall_total_s"] == 6.0
        assert timing["wall_min_s"] == 2.0 and timing["wall_max_s"] == 4.0

    def test_real_sweep_second_pass_is_all_cached(self):
        spec = _spec()
        first = timing_summary(run_sweep([spec], jobs=1))
        assert first["executed"] == 1 and first["wall_total_s"] > 0
        second = timing_summary(run_sweep([spec], jobs=1))
        assert second["executed"] == 0 and second["cached"] == 1
        assert second["wall_total_s"] == 0.0

    def test_empty_outcomes(self):
        timing = timing_summary({})
        assert timing["cells"] == 0 and timing["wall_mean_s"] == 0.0
