"""Sweep progress in queue rows, the ``repro top`` dashboard, and
OpenMetrics output.

The acceptance scenario: an 8-cell sweep whose directory ends up holding
every dashboard state at once -- done, cached, failed, resumed
(checkpoint-aware retry) and a still-running cell -- with the states and
the progress both taken from the sweep's queue rows, rendered correctly
by ``repro top --snapshot``, and the OpenMetrics exposition validating
line-by-line against the format grammar.
"""

import json
import os
import re
import time

import pytest

from repro.cli import main as cli_main
from repro.fsutil import write_atomic
from repro.obs.openmetrics import (
    escape_label,
    metric_name,
    service_exposition,
)
from repro.analysis.top import progress_bar, render_dashboard
from repro.service import JobQueue, build_status, queue_path
from repro.service import worker as service_worker
from repro.service.queue import LIVE_WORKER_S
from repro.service.server import aggregate, display_state
from repro.service.worker import _LeaseRenewer
from repro.sim import sweep
from repro.sim.runner import RunSpec
from repro.sim.sweep import run_sweep, timing_summary

from conftest import TEST_SCALE


def _spec(**overrides):
    base = dict(
        workload="silo", policy="memtis", ratio="1:8", seed=11,
        max_accesses=60_000, scale=TEST_SCALE,
    )
    base.update(overrides)
    return RunSpec(**base)


def _claimed(directory, spec, worker_id="w1", lease_s=600.0):
    """A queue in ``directory`` holding ``spec``, claimed by ``worker_id``."""
    queue = JobQueue(queue_path(directory))
    queue.enqueue([spec], cache=None)
    return queue, queue.claim(worker_id, lease_s=lease_s)


# -- progress in the queue row -------------------------------------------------


class TestHeartbeatFiles:
    """The progress a worker writes into its job's row (the heartbeat
    that rides every lease renewal) and the dashboard state built on it."""

    def test_writer_status_fields(self, tmp_path, monkeypatch):
        monkeypatch.setattr(service_worker, "PROGRESS_INTERVAL_S", 0.0)
        directory = str(tmp_path / "sweep")
        spec = _spec()
        queue, job = _claimed(directory, spec)
        renewer = _LeaseRenewer(queue, job.key, "w1", lease_s=600.0)
        sim = spec.build()
        sim.metrics.timeline_interval_ns = 1e6
        sim.epoch_hook = renewer
        sim.run(max_accesses=spec.max_accesses)
        status = queue.job(job.key).progress
        assert status["pid"] == os.getpid()
        assert status["epoch"] >= 1
        # The engine drains whole batches, so accesses may overshoot the
        # budget by a batch; progress clamps at 1.0 regardless.
        assert 0 < status["accesses"]
        assert status["target_accesses"] == spec.max_accesses
        assert 0.0 < status["progress"] <= 1.0
        assert status["accesses_per_sec"] > 0
        assert status["eta_s"] is not None and status["eta_s"] >= 0
        assert status["violations"] == 0 and status["resumed"] is False
        assert queue.complete(job.key, "w1", progress=renewer.final())
        cell = build_status(directory)["cells"][0]
        assert cell["state"] == "done"
        assert cell["key"] == spec.cache_key()[:16]
        assert cell["label"] == spec.label()
        assert cell["epoch"] == status["epoch"]
        assert cell["accesses"] == status["accesses"]

    def test_claim_starts_without_progress(self, tmp_path):
        """A row nobody has run reads as a cell without progress, and a
        reclaim drops the previous attempt's progress."""
        directory = str(tmp_path / "sweep")
        queue = JobQueue(queue_path(directory))
        queue.enqueue([_spec()], cache=None)
        cell = build_status(directory)["cells"][0]
        assert cell["state"] == "queued" and cell["started_at"] is None
        assert "accesses" not in cell and "pid" not in cell
        job = queue.claim("w1", lease_s=600.0)
        assert queue.renew(job.key, "w1", lease_s=600.0,
                           progress={"epoch": 3, "accesses": 99})
        queue.release("w1")  # the worker died: the row says how far it got
        cell = build_status(directory)["cells"][0]
        assert cell["state"] == "retrying" and cell["epoch"] == 3
        queue.claim("w2", lease_s=600.0)
        assert queue.job(job.key).progress is None
        cell = build_status(directory)["cells"][0]
        assert cell["state"] == "running" and "epoch" not in cell

    def test_display_state_precedence(self):
        assert display_state({"state": "failed", "resumed": True}) == "failed"
        assert display_state({"state": "cached", "resumed": True}) == "cached"
        assert display_state({"state": "done", "resumed": True}) == "resumed"
        assert display_state({"state": "running"}) == "running"

    def test_aggregate(self):
        cells = [
            {"state": "running", "accesses_per_sec": 10.0, "accesses": 5},
            {"state": "done", "accesses_per_sec": 99.0, "accesses": 7,
             "violations": 2},
        ]
        agg = aggregate(cells)
        assert agg["states"] == {"running": 1, "done": 1}
        assert agg["running_accesses_per_sec"] == 10.0  # done rate excluded
        assert agg["total_accesses"] == 12 and agg["violations"] == 2


class TestZeroProgressGuards:
    """Satellite regression: a just-resumed cell (elapsed ~0, zero
    post-resume accesses) must report unknown rate/ETA, not a division
    hazard or an extrapolated-nonsense throughput."""

    def test_status_right_after_resume_reports_unknown_rate(self, tmp_path):
        directory = str(tmp_path / "sweep")
        spec = _spec()
        queue, job = _claimed(directory, spec)
        sim = spec.build()
        sim.metrics.timeline_interval_ns = 1e6
        sim.run(max_accesses=20_000)
        # Simulate the instant after a checkpoint restore: every access
        # so far predates the resume, and no wall time has passed.
        sim._resume_accesses = int(sim.metrics.total_accesses)
        renewer = _LeaseRenewer(queue, job.key, "w1", lease_s=600.0,
                                resumed=True)
        status = renewer.status(sim, now=renewer.started_at)
        assert status["accesses_per_sec"] is None
        assert status["eta_s"] is None
        assert status["accesses"] > 0  # progress itself still reported
        assert 0.0 < status["progress"] <= 1.0
        assert status["resumed"] is True
        # A null rate must survive the JSON round-trip through the row.
        assert queue.renew(job.key, "w1", lease_s=600.0, progress=status)
        cells = build_status(directory)["cells"]
        assert cells[0]["accesses_per_sec"] is None

    def test_fresh_start_zero_elapsed_reports_unknown_rate(self):
        spec = _spec()
        sim = spec.build()  # brand new: zero accesses, zero elapsed
        renewer = _LeaseRenewer(None, spec.cache_key(), "w1", lease_s=600.0)
        status = renewer.status(sim, now=renewer.started_at)
        assert status["accesses_per_sec"] is None
        assert status["eta_s"] is None
        assert status["progress"] == 0.0

    def test_dashboard_renders_unknown_rate_as_dash(self):
        cells = [{
            "key": "deadbeef", "label": "silo memtis 1:8",
            "state": "running", "resumed": True, "progress": 0.4,
            "epoch": 9, "accesses": 40_000, "accesses_per_sec": None,
            "eta_s": None, "violations": 0,
        }]
        art = render_dashboard(cells)
        row = [line for line in art.splitlines()
               if "silo memtis 1:8" in line][0]
        assert row.rstrip().endswith("-")  # eta column unknown
        assert "None" not in art and "inf" not in art

    def test_aggregate_tolerates_unknown_rates(self):
        cells = [
            {"state": "running", "accesses_per_sec": None, "accesses": 5},
            {"state": "running", "accesses_per_sec": 10.0, "accesses": 7},
        ]
        agg = aggregate(cells)
        assert agg["running_accesses_per_sec"] == 10.0
        assert agg["total_accesses"] == 12


class TestWriteRaces:
    """Temp-file hygiene of the atomic writer behind the result cache
    and the checkpoint store."""

    def test_write_atomic_cleans_temp_on_error(self, tmp_path):
        directory = str(tmp_path / "out")
        target = os.path.join(directory, "cell.json")
        with pytest.raises(TypeError):
            write_atomic(target, lambda fh: json.dump({"bad": {1, 2}}, fh))
        assert not os.path.exists(target)
        assert os.listdir(directory) == []  # no .tmp litter

    def test_write_atomic_success_leaves_no_litter(self, tmp_path):
        directory = str(tmp_path / "out")
        write_atomic(os.path.join(directory, "cell.json"),
                     lambda fh: json.dump({"ok": 1}, fh))
        assert sorted(os.listdir(directory)) == ["cell.json"]


class TestCacheCorruptEntryGuard:
    """Satellite regression: ``ResultCache.get`` must not unlink an entry
    a concurrent writer just rewrote."""

    def _cache_and_spec(self, tmp_path):
        from repro.sim.cache import ResultCache

        return ResultCache(str(tmp_path / "cache")), _spec()

    def test_corrupt_entry_removed_and_counted(self, tmp_path):
        cache, spec = self._cache_and_spec(tmp_path)
        path = cache._path(spec.cache_key())
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "wb") as fh:
            fh.write(b"not a pickle")
        assert cache.get(spec) is None
        assert cache.stats.errors == 1 and cache.stats.misses == 1
        assert not os.path.exists(path)  # stable corruption is removed

    def test_replaced_entry_survives_corrupt_unlink(
        self, tmp_path, monkeypatch
    ):
        """Reader loads corrupt bytes; before it unlinks, a writer's
        ``os.replace`` lands a good entry at the same path.  The guarded
        unlink must notice the file changed and leave it alone."""
        import pickle

        cache, spec = self._cache_and_spec(tmp_path)
        path = cache._path(spec.cache_key())
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "wb") as fh:
            fh.write(b"not a pickle")

        real_load = pickle.load

        def load_then_replace(fh):
            # Concurrent writer wins the race while we hold corrupt bytes.
            with open(path + ".new", "wb") as nf:
                pickle.dump({"spec": spec.to_dict(), "result": "fresh"}, nf)
            os.replace(path + ".new", path)
            return real_load(fh)

        monkeypatch.setattr(pickle, "load", load_then_replace)
        assert cache.get(spec) is None  # this read still misses
        monkeypatch.setattr(pickle, "load", real_load)
        assert os.path.exists(path), "fresh entry must not be deleted"
        assert cache.get(spec) == "fresh"

    def test_remove_corrupt_is_noop_without_stat(self, tmp_path):
        cache, spec = self._cache_and_spec(tmp_path)
        assert cache._remove_corrupt(cache._path(spec.cache_key()), None) \
            is False


# -- stall detection -----------------------------------------------------------


def _stalled_dir(tmp_path, *, finished=False):
    """A sweep directory whose one worker died mid-run.

    Both jobs were enqueued long ago and claimed under a short lease by
    a worker that wrote progress once and vanished, so the leases lapse
    with nothing renewing them; ``finished`` completes the jobs instead.
    """
    directory = str(tmp_path / "sweep")
    specs = [_spec(seed=100 + i) for i in range(2)]
    with JobQueue(queue_path(directory)) as queue:
        queue.enqueue(specs, cache=None,
                      now=time.time() - 2 * LIVE_WORKER_S)
        for spec in specs:
            job = queue.claim("w-dead", lease_s=0.2)
            assert queue.renew(job.key, "w-dead", lease_s=0.2, progress={
                "progress": 0.4, "epoch": 7, "accesses_per_sec": 1e5})
            if finished:
                queue.complete(job.key, "w-dead")
    time.sleep(0.3)  # the leases lapse
    return directory, specs


class TestStallDetection:
    def test_mark_stalled_flags_quiet_nonterminal_cells(self, tmp_path):
        """A running row whose lease lapsed is stalled; a live lease, a
        finished row and a retrying (re-queued) row are not."""
        directory = str(tmp_path / "sweep")
        queue = JobQueue(queue_path(directory))
        specs = [_spec(seed=s) for s in (1, 2, 3, 4)]
        queue.enqueue(specs, cache=None, now=100.0)
        lapsed = queue.claim("w1", lease_s=10.0, now=100.0)
        live = queue.claim("w1", lease_s=1e12, now=100.0)
        done = queue.claim("w1", lease_s=10.0, now=100.0)
        assert queue.complete(done.key, "w1", now=101.0)
        retry = queue.claim("w1", lease_s=10.0, now=100.0)
        assert queue.fail(retry.key, "w1", "boom", now=101.0)
        cells = {c["key"]: c for c in build_status(directory)["cells"]}
        flagged = {key: cell.get("stalled", False)
                   for key, cell in cells.items()}
        assert flagged == {lapsed.key[:16]: True, live.key[:16]: False,
                           done.key[:16]: False, retry.key[:16]: False}
        assert display_state(cells[lapsed.key[:16]]) == "stalled"
        assert display_state(cells[done.key[:16]]) == "done"
        assert display_state(cells[retry.key[:16]]) == "retrying"

    def test_stalled_cell_excluded_from_throughput(self):
        cells = [
            {"state": "running", "accesses_per_sec": 10.0},
            {"state": "running", "accesses_per_sec": 99.0, "stalled": True},
        ]
        agg = aggregate(cells)
        assert agg["running_accesses_per_sec"] == 10.0
        assert agg["states"] == {"running": 1, "stalled": 1}

    def test_sweep_stalled_requires_everything_quiet(self, tmp_path):
        queue = JobQueue(queue_path(str(tmp_path / "sweep")))
        queue.enqueue([_spec(seed=s) for s in (1, 2)], cache=None, now=1.0)
        queue.claim("w1", lease_s=50.0, now=1.0)
        # One live lease -> not stalled, however old the rest is.
        assert not queue.stalled(now=40.0)
        # All quiet with work left -> stalled.
        assert queue.stalled(now=100.0)
        # A live worker (idle ones beat every poll) is activity ...
        queue.register_worker("w2", now=90.0)
        assert not queue.stalled(now=100.0)
        assert queue.stalled(now=91.0 + LIVE_WORKER_S)
        # ... a stopped one is not.
        queue.worker_beat("w2", "stopped", now=95.0)
        assert queue.stalled(now=100.0)
        # A freshly enqueued cell is recent activity.
        queue.enqueue([_spec(seed=3)], cache=None, now=95.0)
        assert not queue.stalled(now=100.0)
        # Drained queue -> never stalled.
        while True:
            job = queue.claim("w3", lease_s=10.0, now=200.0)
            if job is None:
                break
            queue.complete(job.key, "w3", now=201.0)
        assert queue.drained() and not queue.stalled(now=1000.0)

    def test_dashboard_renders_stalled(self, tmp_path):
        directory, _ = _stalled_dir(tmp_path)
        status = build_status(directory)
        assert status["stalled"]
        art = render_dashboard(status["cells"])
        assert "stalled" in art
        # A stalled cell's last-known rate would be a lie: rendered "-".
        row = [line for line in art.splitlines() if "stalled" in line][0]
        assert "100.0k/s" not in row

    def test_cli_top_live_loop_exits_3_on_stalled_sweep(
        self, tmp_path, capsys
    ):
        directory, _ = _stalled_dir(tmp_path)
        rc = cli_main(["top", directory, "--interval", "0.1"])
        assert rc == 3
        err = capsys.readouterr().err
        assert "stalled" in err

    def test_cli_top_live_loop_exits_0_on_finished_sweep(
        self, tmp_path, capsys
    ):
        directory, _ = _stalled_dir(tmp_path, finished=True)
        assert cli_main(["top", directory, "--interval", "0.1"]) == 0

    def test_cli_top_snapshot_shows_stalled(self, tmp_path, capsys):
        directory, _ = _stalled_dir(tmp_path)
        assert cli_main(["top", directory, "--snapshot"]) == 0
        assert "stalled" in capsys.readouterr().out


def test_progress_bar_shapes():
    assert progress_bar(0.0) == "[" + "." * 14 + "]"
    assert progress_bar(1.0) == "[" + "#" * 14 + "]"
    half = progress_bar(0.5)
    assert half.count("#") == 6 and ">" in half and len(half) == 16


# -- the 8-cell acceptance sweep -----------------------------------------------


@pytest.fixture
def eight_cell_sweep(tmp_path, monkeypatch):
    """Run an 8-cell sweep covering every dashboard state.

    Returns ``(sweep_dir, outcomes, specs)`` where the sweep's 7 cells
    end as 4 done + 1 cached + 1 failed + 1 resumed, and an 8th cell,
    claimed by a live worker, is left mid-flight in ``running`` state.
    """
    directory = str(tmp_path / "sweep")

    done_specs = [_spec(seed=s) for s in (11, 12, 13, 14)]
    cached_spec = _spec(seed=15)
    cached_spec.run()  # pre-populate the (tmp) result cache
    failed_spec = _spec(seed=16, policy_kwargs={"no_such_option": True})
    flaky_spec = _spec(seed=17, snapshot_every=1)

    # First attempt of the flaky cell "crashes"; the checkpoint-aware
    # retry re-runs it with resume=True, which lands as a resumed cell.
    real_execute_cell = sweep.execute_cell

    def flaky(spec, *args, **kwargs):
        if spec.seed == 17 and not spec.resume:
            return (False, None, "RuntimeError: injected crash")
        return real_execute_cell(spec, *args, **kwargs)

    monkeypatch.setattr(sweep, "execute_cell", flaky)
    specs = done_specs + [cached_spec, failed_spec, flaky_spec]
    outcomes = run_sweep(specs, jobs=1, directory=directory, retries=1)

    # Cell 8: a run caught mid-flight -- claimed, reporting progress
    # through a real worker hook, never finished.
    monkeypatch.setattr(service_worker, "PROGRESS_INTERVAL_S", 0.0)
    running_spec = _spec(seed=18)
    with JobQueue(queue_path(directory)) as queue:
        queue.enqueue([running_spec], cache=None)
        job = queue.claim("w-live", lease_s=600.0)
        sim = running_spec.build()
        sim.metrics.timeline_interval_ns = 1e6
        sim.epoch_hook = _LeaseRenewer(queue, job.key, "w-live", 600.0)
        sim.run(max_accesses=20_000)  # partial budget: stays "running"
    return directory, outcomes, specs


@pytest.mark.slow
class TestEightCellSweep:
    def test_states_and_dashboard(self, eight_cell_sweep):
        directory, outcomes, specs = eight_cell_sweep
        cells = build_status(directory)["cells"]
        assert len(cells) == 8
        states = sorted(display_state(c) for c in cells)
        assert states == sorted(
            ["done"] * 4 + ["cached", "failed", "resumed", "running"]
        )
        art = render_dashboard(cells)
        assert "sweep: 8 cells" in art
        for state in ("running", "cached", "resumed", "failed"):
            assert state in art
        assert "injected crash" not in art  # failed cell shows *its* error
        assert "no_such_option" in art or "!!" in art

    def test_parent_writes_no_cell_files(self, eight_cell_sweep):
        """Only executing workers write progress, and only into their
        queue rows: the cached cell has none, yet the queue shows it
        cached, and the directory holds nothing but the queue file."""
        directory, _, specs = eight_cell_sweep
        cached_key = specs[4].cache_key()[:16]
        cells = build_status(directory)["cells"]
        reported = {c["key"] for c in cells if "pid" in c}
        assert len(reported) == 7  # 6 executed cells + the running one
        assert cached_key not in reported
        assert {name for name in os.listdir(directory)} <= {
            "queue.db", "queue.db-wal", "queue.db-shm"}
        by_key = {c["key"]: c for c in cells}
        assert by_key[cached_key]["state"] == "cached"

    def test_outcomes_and_timing(self, eight_cell_sweep):
        _, outcomes, specs = eight_cell_sweep
        flaky_spec = specs[-1]
        assert outcomes[flaky_spec].ok
        assert outcomes[flaky_spec].resumed is True
        assert outcomes[flaky_spec].attempts == 2
        done = [o for o in outcomes.values()
                if o.ok and not o.from_cache and not o.resumed]
        assert all(o.resumed is False for o in done)
        timing = timing_summary(outcomes)
        assert timing["cells"] == 7 and timing["resumed"] == 1
        assert timing["cached"] == 1 and timing["failed"] == 1
        # Resumed wall is the post-resume attempt only, so it behaves
        # like any executed cell (positive, bounded by the total).
        resumed_wall = outcomes[flaky_spec].result.wall_seconds
        assert 0 < resumed_wall <= timing["wall_total_s"]

    def test_cli_top_snapshot(self, eight_cell_sweep, capsys):
        directory, _, _ = eight_cell_sweep
        assert cli_main(["top", directory, "--snapshot"]) == 0
        out = capsys.readouterr().out
        assert "sweep: 8 cells" in out
        for state in ("running", "cached", "resumed", "failed"):
            assert state in out

    def test_cli_top_openmetrics(self, eight_cell_sweep, capsys):
        directory, _, _ = eight_cell_sweep
        assert cli_main(["top", directory, "--openmetrics"]) == 0
        out = capsys.readouterr().out
        _validate_openmetrics(out)
        assert 'state="resumed"' in out and 'state="running"' in out


# -- OpenMetrics grammar -------------------------------------------------------

_TYPE_RE = re.compile(
    r"^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (gauge|counter)$"
)
_LABELS_RE = re.compile(
    r'^\{[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\\\|\\"|\\n)*"'
    r'(,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\\\|\\"|\\n)*")*\}$'
)
_SAMPLE_RE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{.*\})? (-?(\d+\.?\d*([eE][+-]?\d+)?))$"
)


def _validate_openmetrics(text: str) -> None:
    """Line-by-line exposition-format validation (types, names, labels)."""
    lines = text.rstrip("\n").split("\n")
    assert lines[-1] == "# EOF", "exposition must end with # EOF"
    declared = {}
    for line in lines[:-1]:
        match = _TYPE_RE.match(line)
        if match:
            name, kind = match.groups()
            assert name not in declared, f"family {name} declared twice"
            declared[name] = kind
            continue
        match = _SAMPLE_RE.match(line)
        assert match, f"invalid exposition line: {line!r}"
        sample_name, labels = match.group(1), match.group(2)
        family = sample_name
        if sample_name.endswith("_total"):
            family = sample_name[: -len("_total")]
        if family in declared and sample_name != family:
            assert declared[family] == "counter"
        else:
            family = sample_name
        assert family in declared, f"sample {sample_name} has no TYPE"
        if declared[family] == "counter":
            assert sample_name.endswith("_total"), \
                f"counter sample {sample_name} must end _total"
        if labels:
            assert _LABELS_RE.match(labels), f"bad labels: {labels!r}"
    assert declared, "no metric families emitted"


class TestOpenMetrics:
    def test_name_sanitisation(self):
        assert metric_name("engine/total_accesses") \
            == "engine_total_accesses"
        assert metric_name("9lives") == "_9lives"
        assert _TYPE_RE.match(f"# TYPE {metric_name('a b/c-d')} gauge")

    def test_label_escaping(self):
        assert escape_label('sa"y\\hi\nthere') == 'sa\\"y\\\\hi\\nthere'

    def test_sweep_exposition_grammar_with_hostile_labels(self):
        cells = [{
            "key": "abc", "workload": 'w"1\\x', "policy": "p\n2",
            "state": "running", "progress": 0.5, "epoch": 3,
            "accesses": 10, "accesses_per_sec": 2.5, "resumed": True,
        }]
        _validate_openmetrics(service_exposition({"cells": cells}))
