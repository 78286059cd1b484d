"""Machine/scale specs and the metrics collector."""

import pytest

from repro.mem.pages import HUGE_PAGE_SIZE
from repro.sim.machine import (
    DEFAULT_SCALE,
    MachineSpec,
    ScaleSpec,
    TIERING_RATIOS,
)
from repro.sim.metrics import MetricsCollector

MB = 1024 * 1024
GB = 1024 * MB


class TestScaleSpec:
    def test_floor_applies_to_small_benchmarks(self):
        scale = DEFAULT_SCALE
        assert scale.bytes_for(10.3) == scale.min_bytes  # 654.roms
        assert scale.bytes_for(123) > scale.min_bytes    # pagerank

    def test_bytes_huge_aligned(self):
        assert DEFAULT_SCALE.bytes_for(66.3) % HUGE_PAGE_SIZE == 0

    def test_accesses_floor(self):
        scale = DEFAULT_SCALE
        pages = scale.bytes_for(10.3) // 4096
        assert scale.accesses_for(10.3) >= pages * scale.min_accesses_per_page


class TestMachineSpec:
    def test_paper_ratios(self):
        assert set(TIERING_RATIOS) == {"1:2", "1:8", "1:16", "2:1"}

    def test_from_ratio_fast_fraction(self):
        rss = 900 * MB
        m = MachineSpec.from_ratio(rss, ratio="1:2")
        assert m.fast_bytes == pytest.approx(rss / 3, rel=0.01)
        m = MachineSpec.from_ratio(rss, ratio="1:16")
        assert m.fast_bytes == pytest.approx(rss / 17, rel=0.05)
        m = MachineSpec.from_ratio(rss, ratio="2:1")
        assert m.fast_bytes == pytest.approx(rss * 2 / 3, rel=0.01)

    def test_capacity_holds_full_rss(self):
        rss = 300 * MB
        m = MachineSpec.from_ratio(rss, ratio="1:8")
        assert m.capacity_bytes >= rss

    def test_unknown_ratio(self):
        with pytest.raises(ValueError):
            MachineSpec.from_ratio(100 * MB, ratio="3:4")

    def test_unknown_capacity_kind(self):
        with pytest.raises(ValueError):
            MachineSpec(fast_bytes=8 * MB, capacity_bytes=64 * MB,
                        capacity_kind="hbm")

    def test_variants(self):
        m = MachineSpec.from_ratio(300 * MB, ratio="1:8")
        total = m.fast_bytes + m.capacity_bytes
        all_cap = m.collapse_to_slowest()
        assert all_cap.capacity_bytes == total
        assert all_cap.fast_bytes == HUGE_PAGE_SIZE
        all_fast = m.collapse_to_fastest()
        assert all_fast.fast_bytes == total

    def test_build_tiers_kinds(self):
        m = MachineSpec(fast_bytes=8 * MB, capacity_bytes=64 * MB,
                        capacity_kind="cxl")
        tiers = m.build_tiers()
        assert tiers.slowest.spec.name == "CXL"
        assert tiers.slowest.spec.load_latency_ns == 177.0


class TestMetricsCollector:
    def record(self, collector, accesses=10, fast_hits=5, **kw):
        defaults = dict(mem_ns=100.0, compute_ns=50.0, walk_ns=10.0,
                        fault_ns=0.0, critical_policy_ns=0.0,
                        contention_extra_ns=0.0, hint_faults=0)
        defaults.update(kw)
        collector.record_batch(accesses=accesses, fast_hits=fast_hits, **defaults)

    def test_totals(self):
        m = MetricsCollector()
        self.record(m)
        self.record(m, fault_ns=40.0)
        assert m.total_accesses == 20
        assert m.runtime_ns == pytest.approx(2 * 160.0 + 40.0)
        assert m.fast_hit_ratio == pytest.approx(0.5)

    def test_snapshot_interval(self):
        m = MetricsCollector(timeline_interval_ns=100.0)
        self.record(m)
        m.maybe_snapshot(50.0, 0, 0, dict)
        assert not m.timeline
        m.maybe_snapshot(150.0, 1234, 99, lambda: {"x": 1.0})
        assert len(m.timeline) == 1
        point = m.timeline[0]
        assert point.rss_bytes == 1234
        assert point.policy_stats == {"x": 1.0}
        assert point.window_accesses == 10

    def test_window_resets_after_snapshot(self):
        m = MetricsCollector(timeline_interval_ns=100.0)
        self.record(m)
        m.maybe_snapshot(150.0, 0, 0, dict)
        self.record(m, accesses=3, fast_hits=3)
        m.maybe_snapshot(300.0, 0, 0, dict)
        assert m.timeline[1].window_accesses == 3
        assert m.timeline[1].hit_ratio == 1.0

    def test_throughput(self):
        m = MetricsCollector(timeline_interval_ns=1.0)
        self.record(m, accesses=1000)
        m.maybe_snapshot(1e6, 0, 0, dict)  # 1000 accesses in 1 ms
        assert m.timeline[0].throughput_mops == pytest.approx(1.0)
