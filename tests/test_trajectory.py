"""Perf-regression radar: reducing perfbench runs, diffing points, and
CI gating.

Uses the committed ``benchmarks/BENCH_*.json`` points as the real
fixture (the radar must pass on them verbatim), synthetic edits of them
for each regression the radar gates, and one smoke-scale perfbench run
for the contract between the harness and the reducer.
"""

import copy
import json
import math
import os
import subprocess
import sys

import pytest

from repro.analysis.trajectory import (
    COALESCER_CALLS,
    COALESCER_MIN,
    FORMAT,
    FUSED,
    THROUGHPUT,
    UNFUSED,
    coalescer_ratio,
    compare_docs,
    declared_units,
    default_bench_dir,
    format_report,
    load_history,
    load_point,
    main,
    normalized,
    radar,
    reduce_runs,
    trend_table,
)

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: A workload outside the coalescer gate, for single-workload edits.
OTHER = "zoo_phaseflip_3tier"
#: A count metric every replay point reports as non-zero.
COUNT = "mem.tlb.access_substream.calls"


def _history():
    history = load_history()
    assert history, "no committed BENCH_*.json -- trajectory broken"
    return history


def _latest_doc():
    return copy.deepcopy(_history()[-1][1])


def _scaled_doc(factor, workload=OTHER, metric=THROUGHPUT):
    """The committed point with one workload's metric scaled."""
    doc = _latest_doc()
    doc["workloads"][workload][metric] *= factor
    return doc


def _as_run(point):
    """A point dressed as the ``perfbench/bench.py --out`` document it
    reduces from."""
    units = declared_units()
    return {
        "args": {"seed": point["seed"], "smoke": point["smoke"]},
        "workloads": [
            {"workload": workload,
             "metrics": {name: {"value": value, "unit": units[name]}
                         for name, value in metrics.items()}}
            for workload, metrics in point["workloads"].items()
        ],
    }


class TestHistory:
    def test_default_bench_dir_is_committed_benchmarks(self):
        assert default_bench_dir() == os.path.join(REPO, "benchmarks")
        assert os.path.isdir(default_bench_dir())

    def test_load_history_sorted_and_well_formed(self):
        history = _history()
        numbers = [n for n, _ in history]
        assert numbers == sorted(numbers)
        units = declared_units()
        for _, doc in history:
            assert doc["format"] == FORMAT and not doc["smoke"]
            assert doc["runs"] >= 1
            for metrics in doc["workloads"].values():
                assert set(metrics) == set(units)
            assert coalescer_ratio(doc) >= COALESCER_MIN, \
                "committed point violates its own coalescer gate"

    def test_load_history_ignores_strangers(self, tmp_path):
        (tmp_path / "BENCH_3.json").write_text(json.dumps(_latest_doc()))
        (tmp_path / "BENCH_12.json").write_text(json.dumps(_latest_doc()))
        (tmp_path / "BENCH_notes.txt").write_text("x")
        (tmp_path / "README.md").write_text("x")
        assert [n for n, _ in load_history(str(tmp_path))] == [3, 12]

    def test_normalized_baseline_is_one(self):
        """Normalised throughputs have a geometric mean of one."""
        norm = normalized(_latest_doc())
        assert len(norm) == 4 and all(v > 0 for v in norm.values())
        assert sum(math.log(v) for v in norm.values()) == \
            pytest.approx(0.0, abs=1e-12)


class TestReduce:
    def test_reduce_run_round_trips_a_point(self):
        point = _latest_doc()
        assert reduce_runs([_as_run(point)]) == dict(point, runs=1)

    def test_several_runs_reduce_to_their_median(self):
        point = _latest_doc()
        runs = [_as_run(_scaled_doc(f, "replay_macro")) for f in (3, 1, 0.5)]
        assert reduce_runs(runs) == dict(point, runs=3)

    def test_runs_of_different_seeds_raise(self):
        other = _latest_doc()
        other["seed"] += 1
        with pytest.raises(ValueError, match="differ"):
            reduce_runs([_as_run(_latest_doc()), _as_run(other)])

    def test_unit_mismatch_raises(self):
        run = _as_run(_latest_doc())
        run["workloads"][0]["metrics"][THROUGHPUT]["unit"] = "Macc/s"
        with pytest.raises(ValueError, match="unit"):
            reduce_runs([run])


class TestCompare:
    def test_identical_docs_pass(self):
        doc = _latest_doc()
        report = compare_docs(doc, copy.deepcopy(doc))
        assert report["ok"] and not report["failures"]
        assert all(row["status"] == "ok" for row in report["rows"])
        assert report["coalescer_ratio"] >= COALESCER_MIN

    def test_uniform_machine_speed_cancels(self):
        old = _latest_doc()
        for factor in (0.5, 2.0):  # a half- and a double-speed machine
            new = copy.deepcopy(old)
            for metrics in new["workloads"].values():
                metrics[THROUGHPUT] *= factor
            report = compare_docs(old, new)
            assert report["ok"], report["failures"]

    def test_regression_detected_with_readable_table(self):
        # Against a mean that includes it, a 30% drop reads as 23.5%.
        report = compare_docs(_latest_doc(), _scaled_doc(0.7))
        assert not report["ok"]
        regressed = [r for r in report["rows"] if r["status"] == "REGRESSED"]
        assert [r["workload"] for r in regressed] == [OTHER]
        assert report["failures"] == [
            f for f in report["failures"] if f.startswith(OTHER)]
        text = format_report(report)
        assert "REGRESSED" in text and "delta %" in text
        assert "FAIL:" in text and "-23.5" in text

    def test_within_tolerance_passes(self):
        report = compare_docs(_latest_doc(), _scaled_doc(0.9))
        assert report["ok"], report["failures"]

    def test_coalescer_call_ratio_below_gate_fails(self):
        """Equal TLB call counts mean no fusion: the gate fails even
        though every count is within its own ceiling."""
        new = _latest_doc()
        new["workloads"][UNFUSED][COALESCER_CALLS] = \
            new["workloads"][FUSED][COALESCER_CALLS]
        report = compare_docs(_latest_doc(), new)
        assert not report["ok"]
        [failure] = report["failures"]
        assert failure.startswith(f"coalescer {UNFUSED}/{FUSED}")
        assert f"1.00x (target >= {COALESCER_MIN:g}x)" \
            in format_report(report)

    def test_coalescer_gate_ignores_throughput_ratio(self):
        """The throughput ratio is printed as a trend, not gated: a
        fast unfused replay passes while fusion still happens."""
        new = _latest_doc()
        new["workloads"][FUSED][THROUGHPUT] = \
            new["workloads"][UNFUSED][THROUGHPUT] * 1.5
        report = compare_docs(new, new)
        assert report["ok"], report["failures"]
        assert "1.50x (trend, not gated)" in format_report(report)

    def test_coalescer_calls_missing_is_a_failure(self):
        new = _latest_doc()
        del new["workloads"][FUSED][COALESCER_CALLS]
        report = compare_docs(_latest_doc(), new)
        assert f"coalescer {UNFUSED}/{FUSED}: {COALESCER_CALLS} missing " \
            "from the current point" in report["failures"]

    def test_count_growth_fails(self):
        report = compare_docs(_latest_doc(),
                              _scaled_doc(1.25, "replay_macro", COUNT))
        assert not report["ok"]
        [failure] = report["failures"]
        assert failure.startswith(f"replay_macro.{COUNT}: count ")

    def test_count_fall_passes(self):
        report = compare_docs(_latest_doc(),
                              _scaled_doc(0.5, "replay_macro", COUNT))
        assert report["ok"], report["failures"]

    def test_config_mismatch_is_a_failure(self):
        new = _latest_doc()
        new["seed"] = 999
        report = compare_docs(_latest_doc(), new)
        assert not report["ok"]
        assert any("config mismatch" in f and "seed" in f
                   for f in report["failures"])

    def test_missing_scenario_is_a_failure(self):
        new = _latest_doc()
        del new["workloads"][OTHER]
        report = compare_docs(_latest_doc(), new)
        assert not report["ok"]
        assert f"{OTHER}: missing from the current point" \
            in report["failures"]

    def test_missing_metric_is_a_failure(self):
        new = _latest_doc()
        del new["workloads"]["sweep_grid"]["service.queue.claim_p99_ms"]
        report = compare_docs(_latest_doc(), new)
        assert report["failures"] == [
            "sweep_grid.service.queue.claim_p99_ms: missing from the "
            "current point"]


class TestTrend:
    def test_trend_table_has_all_points(self):
        history = _history()
        text = trend_table(history)
        for n, _ in history:
            assert f"PR {n}" in text
        for name in history[-1][1]["workloads"]:
            assert name in text

    def test_trend_table_empty_history(self):
        assert "no committed" in trend_table([])


class TestRadarCli:
    def test_passes_on_committed_history(self, tmp_path, capsys):
        current = tmp_path / "current.json"
        current.write_text(json.dumps(_as_run(_latest_doc())))
        out = tmp_path / "delta.txt"
        point = tmp_path / "point.json"
        assert main(["--current", str(current), "--out", str(out),
                     "--save-point", str(point)]) == 0
        text = out.read_text()
        assert "no regression beyond tolerance" in text
        assert "trajectory" in text  # trend table present in the artifact
        assert capsys.readouterr().out.strip() + "\n" == text
        assert load_point([str(point)]) == dict(_latest_doc(), runs=1)

    def test_fails_nonzero_on_synthetic_regression(self, tmp_path, capsys):
        current = tmp_path / "current.json"
        current.write_text(json.dumps(_scaled_doc(0.5)))
        assert radar([str(current)]) == 1
        out = capsys.readouterr().out
        assert "REGRESSED" in out and "FAIL:" in out

    def test_fails_without_history(self, tmp_path, capsys):
        empty = tmp_path / "bench"
        empty.mkdir()
        current = tmp_path / "current.json"
        current.write_text(json.dumps(_latest_doc()))
        assert radar([str(current)], bench_dir=str(empty)) == 1
        assert "no committed BENCH_" in capsys.readouterr().out

    def test_custom_tolerance(self, tmp_path):
        current = tmp_path / "current.json"
        # 10% down on one workload: fails only at 5% tolerance.
        current.write_text(json.dumps(_scaled_doc(0.9)))
        assert radar([str(current)], tolerance=0.05) == 1
        assert radar([str(current)], tolerance=0.20) == 0


@pytest.mark.slow
def test_perfbench_run_reduces_to_every_declared_metric(tmp_path):
    """The reducer's contract with ``perfbench/bench.py --out``: every
    declared metric, for every workload, with its declared unit."""
    out = tmp_path / "run.json"
    proc = subprocess.run(
        [sys.executable, os.path.join(REPO, "perfbench", "bench.py"),
         "--smoke", "--reps", "1", "--out", str(out)],
        cwd=REPO, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    run = json.loads(out.read_text())
    point = load_point([str(out)])  # raises on a unit mismatch
    assert point == reduce_runs([run])
    assert point["smoke"] and point["seed"] == _latest_doc()["seed"]
    assert set(point["workloads"]) == set(_latest_doc()["workloads"])
    for metrics in point["workloads"].values():
        assert set(metrics) == set(declared_units())
