"""Checks of the benchmark harness itself, at smoke scale.

Run from the repository root::

    python -m pytest perfbench/test_bench_harness.py -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src"), os.path.join(ROOT, "benchmarks")]

import bench  # noqa: E402
from layers import SpanRecorder  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    DECLARED = json.load(_fh)


@pytest.fixture(scope="module")
def smoke_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "out.json"
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "bench.py"), "--smoke",
         "--reps", "1", "--trace", "1", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    with open(out) as fh:
        return proc.stdout, json.load(fh)


def test_declared_workloads_are_the_harness_workloads():
    assert [w["name"] for w in DECLARED["workloads"]] == list(bench.WORKLOADS)


def test_every_declared_metric_printed_with_its_unit(smoke_run):
    stdout, _ = smoke_run
    rows = {tuple(line.split()[:2]): line.split()[-1]
            for line in stdout.splitlines()[1:] if line.strip()}
    for workload in bench.WORKLOADS:
        for spec in DECLARED["end_to_end"] + DECLARED["per_layer"]:
            assert rows.get((workload, spec["name"])) == spec["unit"], \
                (workload, spec["name"])


def test_result_line_holds_the_declared_per_layer_metrics(smoke_run):
    stdout, _ = smoke_run
    line = json.loads(stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    expected = {f"{w}.{spec['name']}" for w in bench.WORKLOADS
                for spec in DECLARED["per_layer"]}
    assert set(line["metrics"]) == expected


def test_traced_digest_equals_plain_digest(smoke_run):
    _, doc = smoke_run
    for workload in doc["workloads"]:
        assert workload["digests"]["traced"] == workload["digests"]["plain"]


def test_layer_self_times_account_for_at_most_the_wall(smoke_run):
    _, doc = smoke_run
    for workload in doc["workloads"]:
        trace = workload["trace"]
        selfs = [row["self_s"] for row in trace["layers"].values()]
        assert min(selfs) >= -1e-6, workload["workload"]
        assert sum(selfs) <= trace["setup_s"] + trace["wall_s"] + 1e-3


def test_bad_sweep_cell_counts_as_failed_ops(tmp_path):
    import scenarios

    sweep = scenarios.make("sweep_grid", seed=7, smoke=True)
    sweep.cells.append(("silo", "no-such-policy", 7))
    _, rep, _ = bench._one_rep(sweep, str(tmp_path), 0)
    assert rep.ops == 2 * len(sweep.cells) + sweep.queue_jobs
    assert rep.failed == 2  # its cold run and its cached rerun
    assert all("no-such-policy" in failure for failure in rep.failures)


def test_missing_program_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    proc = subprocess.run(
        [sys.executable, "perfbench/bench.py", "--workload", "replay_macro"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode not in (0, None)
    assert proc.stdout.strip() == ""


def test_span_self_time_excludes_children_and_recursion():
    rec = SpanRecorder()
    # Hand-built tree: outer(0..100) > inner(10..40) > inner(20..30).
    rec.names = ["outer", "inner", "inner"]
    rec.start_ns = [0, 10, 20]
    rec.end_ns = [100, 40, 30]
    rec.parent = [-1, 0, 1]
    layers = rec.summary()
    assert layers["outer"]["self_s"] == pytest.approx(70e-9)
    assert layers["inner"]["busy_s"] == pytest.approx(30e-9)  # not 40
    assert layers["inner"]["self_s"] == pytest.approx(30e-9)
    assert layers["inner"]["calls"] == 2
    assert rec.summary(first=1)["inner"]["busy_s"] == pytest.approx(30e-9)
