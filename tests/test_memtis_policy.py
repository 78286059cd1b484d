"""MemtisPolicy end-to-end properties on small simulations."""

import numpy as np
import pytest

from repro.core.config import MemtisConfig
from repro.core.policy import MemtisPolicy
from repro.policies.static import AllCapacityPolicy
from repro.sim.engine import Simulation
from repro.sim.machine import MachineSpec
from repro.workloads.registry import make_workload

from conftest import MEDIUM_SCALE, TEST_SCALE

MB = 1024 * 1024


def run_memtis(workload_name="silo", ratio="1:8", seed=3, scale=TEST_SCALE,
               **overrides):
    workload = make_workload(workload_name, scale)
    machine = MachineSpec.from_ratio(workload.total_bytes, ratio=ratio)
    sim = Simulation(workload, MemtisPolicy(**overrides), machine, seed=seed)
    return sim, sim.run()


class TestConfig:
    def test_overrides_applied(self):
        policy = MemtisPolicy(enable_split=False, alpha=0.8)
        assert policy.config.enable_split is False
        assert policy.config.alpha == 0.8

    def test_explicit_config_object(self):
        config = MemtisConfig(num_bins=16, enable_warm_set=False)
        policy = MemtisPolicy(config=config)
        assert policy.config.enable_warm_set is False

    def test_resolved_intervals_scale_with_machine(self):
        config = MemtisConfig()
        small = config.resolved(fast_bytes=8 * MB, total_bytes=64 * MB)
        large = config.resolved(fast_bytes=64 * MB, total_bytes=512 * MB)
        assert large.adaptation_interval_samples > small.adaptation_interval_samples
        assert small.cooling_interval_samples == 8 * small.adaptation_interval_samples

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            MemtisConfig(alpha=0.0)
        with pytest.raises(ValueError):
            MemtisConfig(num_bins=1)


class TestEndToEnd:
    def test_never_extends_critical_path(self):
        """The paper's structural claim (§3): everything is background."""
        _sim, result = run_memtis()
        assert result.metrics.critical_policy_ns == 0.0
        assert result.metrics.fault_ns == 0.0 \
            or result.counters["kmigrated/splits"] > 0
        assert result.migration.critical_path_ns == 0.0

    def test_beats_no_tiering(self):
        sim, result = run_memtis()
        workload = make_workload("silo", TEST_SCALE)
        machine = MachineSpec.from_ratio(workload.total_bytes, ratio="1:8")
        baseline = Simulation(
            workload, AllCapacityPolicy(), machine.collapse_to_slowest(), seed=3
        ).run()
        assert result.runtime_ns < baseline.runtime_ns

    def test_hot_set_bounded_by_fast_tier(self):
        """Algorithm 1 sizes the hot set to DRAM: it must fit."""
        sim, result = run_memtis("xsbench", ratio="1:8", scale=MEDIUM_SCALE)
        fast = result.machine.fast_bytes
        hot = result.metrics.series.policy["hot_bytes"][2:]
        assert hot, "expected series rows"
        ok = [b <= fast * 1.05 for b in hot]
        # Transient overshoot is allowed (§6.3.1), but not persistence.
        assert sum(ok) >= 0.8 * len(ok)

    def test_sampling_cpu_bounded(self):
        _sim, result = run_memtis("silo")
        assert result.policy_stats["ksampled_cpu_mean"] <= 0.04

    def test_split_improves_skewed_workload(self):
        _sim, with_split = run_memtis("silo", seed=5, scale=MEDIUM_SCALE)
        _sim, no_split = run_memtis("silo", seed=5, scale=MEDIUM_SCALE,
                                    enable_split=False)
        assert with_split.counters["kmigrated/splits"] > 0
        assert no_split.counters["kmigrated/splits"] == 0
        assert with_split.fast_hit_ratio > no_split.fast_hit_ratio

    def test_warm_set_reduces_traffic(self):
        _sim, warm = run_memtis("xsbench", seed=5, enable_split=False)
        _sim, vanilla = run_memtis("xsbench", seed=5, enable_split=False,
                                   enable_warm_set=False)
        assert warm.migration.traffic_bytes <= vanilla.migration.traffic_bytes

    def test_stats_keys(self):
        _sim, result = run_memtis()
        for key in ("hot_bytes", "warm_bytes", "cold_bytes", "t_base_hot"):
            assert key in result.policy_stats
        for name in ("ksampled/t_hot", "ksampled/ehr", "ksampled/rhr",
                     "kmigrated/splits", "ksampled/adaptations",
                     "ksampled/coolings"):
            assert name in result.counters
        # Each value is stored once: no stats key repeats a registry one.
        short = {name.split("/")[-1] for name in result.counters}
        assert not short & set(result.policy_stats)

    def test_mapping_consistency_after_run(self):
        sim, _result = run_memtis("btree")
        sim.space.check_consistency()

    def test_histogram_covers_all_mapped_pages_after_run(self):
        sim, _result = run_memtis("silo")
        ks = sim.policy.ksampled
        mapped = int(np.count_nonzero(sim.space.page_tier >= 0))
        assert ks.base_hist.total_pages == mapped
        assert ks.hist.total_pages == mapped

    def test_deterministic_given_seed(self):
        _sim, a = run_memtis("silo", seed=11)
        _sim, b = run_memtis("silo", seed=11)
        assert a.runtime_ns == b.runtime_ns
        assert a.fast_hit_ratio == b.fast_hit_ratio
