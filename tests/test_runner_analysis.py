"""RunSpec execution and normalisation, and the analysis formatting utilities."""

import numpy as np
import pytest

from repro.analysis.ascii import bar_chart, grouped_bar_chart, heatmap, timeline_chart
from repro.analysis.tables import format_table
from repro.sim.runner import RunSpec, normalized_performance
from repro.sim.sweep import raise_failures, run_sweep

from conftest import TEST_SCALE


def _spec(policy, **kwargs):
    kwargs.setdefault("max_accesses", 50_000)
    return RunSpec("silo", policy, ratio="1:8", scale=TEST_SCALE, **kwargs)


class TestRunner:
    def test_spec_run(self):
        result = _spec("all-capacity").run()
        assert result.policy_name == "all-capacity"
        assert result.metrics.total_accesses >= 50_000
        assert result.fast_hit_ratio <= 0.05

    def test_baseline_normalises_to_one(self):
        baseline = _spec("memtis").baseline_spec().run()
        assert normalized_performance(baseline, baseline) == 1.0

    def test_sweep_reuses_shared_baseline(self):
        specs = [_spec("all-fast"), _spec("memtis")]
        baseline_spec = specs[0].baseline_spec()
        assert specs[1].baseline_spec() == baseline_spec
        outcomes = run_sweep([s.baseline_spec() for s in specs] + specs)
        raise_failures(outcomes)
        # One shared baseline cell, executed once.
        assert len(outcomes) == 3
        baseline = outcomes[baseline_spec].result
        # DRAM placement beats all-NVM.
        assert normalized_performance(outcomes[specs[0]].result,
                                      baseline) > 1.0

    def test_policy_kwargs_forwarded(self):
        sim = _spec("memtis", policy_kwargs={"enable_split": False}).build()
        assert sim.policy.config.enable_split is False

    def test_cxl_capacity_kind(self):
        sim = _spec("all-capacity", capacity_kind="cxl").build()
        assert sim.tiers.slowest.spec.name == "CXL"


class TestTables:
    def test_format_table(self):
        text = format_table(["a", "bb"], [[1, 2.5], ["xy", 0.123456]],
                            title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[2] and "bb" in lines[2]
        assert "0.123" in text

    def test_column_alignment(self):
        text = format_table(["col"], [["short"], ["a-very-long-cell"]])
        lines = text.splitlines()
        assert len(lines[1]) >= len("a-very-long-cell")


class TestAsciiCharts:
    def test_bar_chart_values_shown(self):
        text = bar_chart(["x", "yy"], [1.0, 2.0], reference=1.0)
        assert "2.000" in text
        assert "|" in text  # reference marker

    def test_bar_chart_mismatched_lengths(self):
        with pytest.raises(ValueError):
            bar_chart(["a"], [1.0, 2.0])

    def test_grouped_bar_chart(self):
        text = grouped_bar_chart(
            ["g1", "g2"], {"s1": [1.0, 2.0], "s2": [0.5, 1.5]}
        )
        assert "[g1]" in text and "[g2]" in text

    def test_heatmap(self):
        grid = np.arange(100, dtype=float).reshape(10, 10)
        text = heatmap(grid, title="hm", width=10, height=5)
        assert "hm" in text
        assert "@" in text  # maximum intensity shade appears

    def test_heatmap_empty(self):
        assert "empty" in heatmap(np.zeros((0, 4)))

    def test_timeline_chart(self):
        text = timeline_chart([0.0, 1.0, 2.0], {"hot": [1, 2, 3]})
        assert "H=hot" in text

    def test_timeline_chart_no_samples(self):
        assert "no samples" in timeline_chart([], {"x": []})


class TestRunRepeated:
    def test_multi_seed_statistics(self):
        specs = [_spec("all-fast", seed=seed, max_accesses=60_000)
                 for seed in (1, 2)]
        outcomes = run_sweep([s.baseline_spec() for s in specs] + specs)
        raise_failures(outcomes)
        values = [
            normalized_performance(outcomes[s].result,
                                   outcomes[s.baseline_spec()].result)
            for s in specs
        ]
        mean = sum(values) / len(values)
        # Different seeds produce different (but close) traces.
        assert values[0] != values[1]
        assert abs(values[0] - values[1]) < 0.5 * mean
