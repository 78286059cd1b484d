"""MetricsTimeSeries: unit behaviour + the run's one per-epoch series.

Three contracts:

* **row semantics** -- counter deltas vs gauge values, mid-run column
  zero-backfill, every row kept, derived window views, serialisation
  round-trip;
* **one series per run** -- every run records one row at every closed
  epoch, its tail included, whose window counts sum to the run totals;
  the epoch cadence changes the series and nothing else, and the spec
  has no knob for it;
* **contiguous resume** -- a restored series carries its delta
  baselines across the checkpoint; whole-run resume equality, series
  included, is the conformance matrix's ``resume`` axis.
"""

import json

import pytest

from repro import kernels
from repro.obs import CounterRegistry, MetricsTimeSeries
from repro.sim.runner import RunSpec
from repro.snapshot.walk import capture, restore

from conformance import canonical
from conftest import TEST_SCALE

#: Short virtual epochs so a small access budget yields many of them.
EPOCH_NS = 1e6


def _spec(**overrides):
    base = dict(
        workload="silo", policy="memtis", ratio="1:8", seed=11,
        max_accesses=150_000, scale=TEST_SCALE,
    )
    base.update(overrides)
    return RunSpec(**base)


def _build(spec, epoch_ns=EPOCH_NS):
    sim = spec.build()
    sim.metrics.timeline_interval_ns = epoch_ns
    return sim


def _row(ts, now_ns, reg=None, accesses=0, hits=0, **policy):
    ts.record(now_ns, accesses, hits, 0, 0, policy,
              CounterRegistry() if reg is None else reg)


# -- row unit behaviour --------------------------------------------------------


class TestRecorder:
    def test_counter_deltas_and_gauge_values(self):
        reg = CounterRegistry()
        counter = reg.counter("m/events")
        gauge = reg.gauge("m/level")
        ts = MetricsTimeSeries()
        counter.inc(5)
        gauge.set(1.5)
        _row(ts, 10.0, reg)
        counter.inc(3)
        gauge.set(9.0)
        _row(ts, 20.0, reg)
        data = ts.to_dict()
        assert data["now_ns"] == [10.0, 20.0]
        assert data["counters"]["m/events"] == [5, 3]  # deltas, not totals
        assert data["counters"]["m/level"] == [1.5, 9.0]  # raw gauge values
        assert data["kinds"] == {"m/events": "counter", "m/level": "gauge"}

    def test_distribution_contributes_count_delta(self):
        reg = CounterRegistry()
        dist = reg.distribution("m/lat")
        ts = MetricsTimeSeries()
        dist.record(3.0)
        dist.record(5.0)
        _row(ts, 0.0, reg)
        dist.record(7.0)
        _row(ts, 1.0, reg)
        assert ts.to_dict()["counters"]["m/lat"] == [2, 1]

    def test_cadence(self):
        """One row per ``record`` call: the collector calls it at every
        epoch close, so the series has no cadence of its own."""
        ts = MetricsTimeSeries()
        for epoch in range(10):
            _row(ts, float(epoch))
        assert len(ts) == 10
        assert not hasattr(ts, "due")

    def test_every_row_is_kept(self):
        reg = CounterRegistry()
        counter = reg.counter("c")
        ts = MetricsTimeSeries()
        for epoch in range(5000):
            counter.inc(1)
            _row(ts, float(epoch), reg)
        data = ts.to_dict()
        assert len(data["now_ns"]) == 5000
        assert data["counters"]["c"] == [1] * 5000

    def test_midrun_column_zero_backfilled(self):
        reg = CounterRegistry()
        reg.counter("early").inc(1)
        ts = MetricsTimeSeries()
        _row(ts, 0.0, reg, a=1.0)
        reg.counter("late").inc(4)
        _row(ts, 1.0, reg, b=2.0)
        data = ts.to_dict()
        assert data["counters"]["late"] == [0, 4]
        # A policy column that a row leaves out records 0 there.
        assert data["policy"] == {"a": [1.0, 0], "b": [0, 2.0]}
        assert all(len(c) == 2 for c in data["counters"].values())

    def test_window_views(self):
        ts = MetricsTimeSeries()
        _row(ts, 1e6, accesses=1000, hits=250)  # 1000 accesses in 1 ms
        _row(ts, 3e6, accesses=500, hits=500)
        assert ts.window_ns() == [1e6, 2e6]
        assert ts.throughput_mops() == pytest.approx([1.0, 0.25])
        assert ts.hit_ratio() == [0.25, 1.0]

    def test_state_roundtrip(self):
        reg = CounterRegistry()
        counter = reg.counter("c")
        ts = MetricsTimeSeries()
        counter.inc(2)
        _row(ts, 5.0, reg, x=1.0)
        restored = MetricsTimeSeries()
        restore({"series": restored}, capture({"series": ts}))
        assert restored.to_dict() == ts.to_dict()
        # The delta baseline travels too: the next record sees a delta,
        # not the absolute value.
        counter.inc(3)
        _row(restored, 6.0, reg)
        assert restored.to_dict()["counters"]["c"] == [2, 3]


# -- one series per run --------------------------------------------------------


class TestSpecIntegration:
    def test_series_on_every_run(self):
        """A plain run records one row per closed epoch, tail included."""
        spec = _spec()
        closed = []
        sim = _build(spec)
        sim.epoch_hook = lambda s: closed.append(s.now_ns)
        result = sim.run(max_accesses=spec.max_accesses)
        block = result.to_dict()["metrics"]["series"]
        assert len(closed) >= 3
        assert block["now_ns"] == closed
        assert closed[-1] == sim.now_ns  # the tail row
        assert block["counters"] and block["policy"]
        json.dumps(block)  # JSON-safe all the way down

    def test_cache_identity_and_layout(self):
        """The series has no spec knob: specs keep their layout."""
        spec = _spec()
        assert "timeseries_every" not in spec.to_dict()
        assert RunSpec.from_dict(spec.to_dict()) == spec
        with pytest.raises(TypeError):
            _spec(timeseries_every=1)

    def test_engine_gauge_columns_present(self):
        """The engine's own columns: window counts sum to the run
        totals, RSS and fast-tier bytes are per-row values.  Registry
        mirrors of those totals (``engine/*``) are not recorded."""
        spec = _spec()
        result = _build(spec).run(max_accesses=spec.max_accesses)
        series = result.metrics.series
        assert sum(series.window_accesses) == result.metrics.total_accesses
        assert sum(series.window_fast_hits) == result.metrics.total_fast_hits
        assert series.rss_bytes[-1] == result.final_rss_bytes
        assert all(b > 0 for b in series.fast_used_bytes)
        assert not any(name.startswith(("engine/", "pebs/"))
                       for name in series.counters)


def _outside_series(result) -> dict:
    d = canonical(result)
    del d["metrics"]["series"]
    return d


@pytest.mark.slow
@pytest.mark.parametrize("mode", [kernels.VECTORIZED, kernels.SCALAR])
def test_epoch_cadence_changes_only_the_series(mode):
    """Recording is observational: the default 20 ms epochs and 1 ms
    ones give different series and bit-identical everything else."""
    with kernels.forced(mode):
        spec = _spec()
        coarse = _build(spec, 20e6).run(max_accesses=spec.max_accesses)
        fine = _build(spec).run(max_accesses=spec.max_accesses)
    assert len(fine.metrics.series) > len(coarse.metrics.series)
    assert json.dumps(_outside_series(fine), sort_keys=True) \
        == json.dumps(_outside_series(coarse), sort_keys=True)


# -- one stored copy of every value --------------------------------------------


@pytest.mark.parametrize("policy", ["memtis", "hemem"])
def test_each_value_stored_once(policy):
    """No count is serialised twice: the registry holds no mirror of
    ``metrics`` (``engine/*``) or ``sampler_stats`` (``pebs/*``), no
    ``policy_stats`` key is also a registry instrument, and the result
    has exactly one per-epoch series."""
    result = _spec(policy=policy, max_accesses=None).run(cache=None)
    doc = result.to_dict()
    counters = doc["observability"]["counters"]
    assert counters, "expected registry values"
    assert not [n for n in counters if n.startswith(("engine/", "pebs/"))]
    registry_keys = {name.rsplit("/", 1)[-1] for name in counters}
    assert not registry_keys & set(doc["policy_stats"])
    assert set(doc["observability"]) == {"counters", "tracer"}
    assert "timeline" not in doc["metrics"]
    series = doc["metrics"]["series"]
    rows = len(series["now_ns"])
    assert rows > 0
    columns = [series[f] for f in ("window_accesses", "window_fast_hits",
                                   "rss_bytes", "fast_used_bytes")]
    columns += list(series["policy"].values())
    columns += list(series["counters"].values())
    assert all(len(column) == rows for column in columns)
