"""The sweep service: job queue, lease protocol, workers, HTTP API, chaos.

Acceptance scenario (``TestServiceChaos``): ``repro service start`` drains
a queue with two supervised workers while one of them is SIGKILL-ed
mid-job.  No cell may be lost or duplicated -- every enqueued RunSpec must
end ``done`` exactly once, the killed job must record a lease expiration
(not a burned attempt) and a resumed continuation, and every cached result
must be bit-identical to a serial execution of the same spec.
"""

import json
import multiprocessing
import os
import select
import signal
import sqlite3
import subprocess
import sys
import threading
import time
import urllib.request

import pytest

from repro.cli import main as cli_main
from repro.service import (
    CACHED,
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    JobQueue,
    QueueFormatError,
    Worker,
    build_status,
    queue_path,
    start_server,
    supervise,
)
from repro.service.worker import (
    PROGRESS_INTERVAL_S,
    LeaseLost,
    _LeaseRenewer,
)
from repro.sim import cache as result_cache
from repro.sim.runner import RunSpec

from conftest import MEDIUM_SCALE, TEST_SCALE
from test_heartbeat_top import _validate_openmetrics


def _spec(**overrides):
    base = dict(
        workload="silo", policy="memtis", ratio="1:8", seed=21,
        max_accesses=60_000, scale=TEST_SCALE, snapshot_every=1,
    )
    base.update(overrides)
    return RunSpec(**base)


def _canon(result):
    """Result dict minus host-timing fields (the only legit variance)."""
    d = result.to_dict()
    d.pop("wall_seconds")
    d.pop("phase_ns")
    return d


# -- queue semantics -----------------------------------------------------------


class TestJobQueue:
    def test_enqueue_dedups_and_skips_cached(self, tmp_path):
        d = str(tmp_path / "svc")
        cached_spec = _spec(seed=31)
        cached_spec.run()  # pre-populate the (tmp) result cache
        fresh = [_spec(seed=s) for s in (32, 33)]
        queue = JobQueue(queue_path(d))
        report = queue.enqueue(fresh + [cached_spec, fresh[0]])
        assert report.queued == 2 and report.cached == 1
        assert report.deduped == 0  # in-batch duplicate collapses silently
        assert queue.counts() == {QUEUED: 2, RUNNING: 0, DONE: 0,
                                  FAILED: 0, CACHED: 1}
        again = queue.enqueue(fresh)
        assert again.queued == 0 and again.deduped == 2

    def test_checked_spec_never_skips_via_cache(self, tmp_path):
        spec = _spec(seed=34)
        spec.run()
        checked = spec.replace(check="end")
        queue = JobQueue(queue_path(str(tmp_path / "svc")))
        report = queue.enqueue([checked])
        assert report.queued == 1 and report.cached == 0

    def test_claim_lease_complete_lifecycle(self, tmp_path):
        queue = JobQueue(queue_path(str(tmp_path / "svc")))
        queue.enqueue([_spec(seed=35)], cache=None)
        job = queue.claim("w1", lease_s=10.0, now=100.0)
        assert job is not None and job.state == RUNNING
        assert job.lease_owner == "w1" and job.claims == 1
        assert job.lease_expires_at == 110.0
        # Nothing else claimable while the lease holds.
        assert queue.claim("w2", lease_s=10.0, now=105.0) is None
        assert queue.renew(job.key, "w1", lease_s=10.0, now=108.0)
        assert queue.complete(job.key, "w1", wall_s=1.5, now=109.0)
        done = queue.job(job.key)
        assert done.state == DONE and done.wall_s == 1.5
        assert queue.drained()
        # Duplicate completion no-ops.
        assert not queue.complete(job.key, "w1", now=110.0)

    def test_expired_lease_requeues_without_burning_attempts(self, tmp_path):
        queue = JobQueue(queue_path(str(tmp_path / "svc")))
        queue.enqueue([_spec(seed=36)], cache=None)
        job = queue.claim("w1", lease_s=5.0, now=100.0)
        # w1 dies; after expiry any claim pass re-queues and re-claims.
        reclaimed = queue.claim("w2", lease_s=5.0, now=106.0)
        assert reclaimed is not None and reclaimed.key == job.key
        assert reclaimed.lease_owner == "w2"
        assert reclaimed.expirations == 1 and reclaimed.attempts == 0
        assert reclaimed.claims == 2
        # The dead owner's renewals and fail() verdicts are rejected.
        assert not queue.renew(job.key, "w1", lease_s=5.0, now=107.0)
        assert not queue.fail(job.key, "w1", "late verdict", now=107.0)

    def test_fail_burns_attempts_until_failed(self, tmp_path):
        queue = JobQueue(queue_path(str(tmp_path / "svc")))
        queue.enqueue([_spec(seed=37)], cache=None, max_attempts=2)
        job = queue.claim("w1", lease_s=5.0, now=100.0)
        assert queue.fail(job.key, "w1", "boom", now=101.0)
        assert queue.job(job.key).state == QUEUED  # one attempt left
        job = queue.claim("w1", lease_s=5.0, now=102.0)
        assert queue.fail(job.key, "w1", "boom again", now=103.0)
        final = queue.job(job.key)
        assert final.state == FAILED and final.attempts == 2
        assert final.error == "boom again"
        assert queue.drained()
        # Re-submitting a failed spec grants a fresh budget.
        report = queue.enqueue([_spec(seed=37)], cache=None)
        assert report.requeued == 1
        assert queue.job(job.key).state == QUEUED
        assert queue.job(job.key).attempts == 0

    def test_usurped_completion_first_wins(self, tmp_path):
        queue = JobQueue(queue_path(str(tmp_path / "svc")))
        queue.enqueue([_spec(seed=38)], cache=None)
        job = queue.claim("w1", lease_s=5.0, now=100.0)
        queue.claim("w2", lease_s=5.0, now=106.0)  # usurps after expiry
        # Results are deterministic: whoever completes first wins, the
        # other is a no-op -- never a duplicate or a state regression.
        assert queue.complete(job.key, "w1", now=107.0)
        assert not queue.complete(job.key, "w2", now=108.0)
        assert queue.job(job.key).state == DONE

    def test_refuses_an_older_queue_file(self, tmp_path):
        """A queue.db written before rows carried progress (format 0,
        no ``progress`` column) is refused by name, and left as it was."""
        old = str(tmp_path / "svc" / "queue.db")
        os.makedirs(os.path.dirname(old))
        fixture = os.path.join(os.path.dirname(__file__), "data",
                               "queue_format0.db")
        with open(fixture, "rb") as src, open(old, "wb") as dst:
            dst.write(src.read())
        with pytest.raises(QueueFormatError, match="format 0") as excinfo:
            JobQueue(old)
        assert old in str(excinfo.value)
        with open(fixture, "rb") as src, open(old, "rb") as now:
            assert now.read() == src.read()
        assert cli_main(["service", "status", str(tmp_path / "svc")]) == 2

    def test_open_during_creation_never_reads_format_0(self, tmp_path):
        """A client that opens queue.db while another connection creates
        it sees the file either empty or complete, never as a format-0
        file with tables: version and tables are read in one snapshot.
        Reading them in two statements failed ~1 iteration in 8 here.
        Lock contention on a fresh file is retried, as a client would."""
        refused = []

        def open_retrying(path):
            while True:
                try:
                    JobQueue(path).close()
                    return
                except sqlite3.OperationalError:
                    time.sleep(0.001)

        def open_when_present(path, created):
            while not os.path.exists(path):
                if created.is_set():
                    return
            try:
                open_retrying(path)
            except QueueFormatError as exc:
                refused.append(exc)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for i in range(150):
                path = str(tmp_path / f"q{i}.db")
                created = threading.Event()
                reader = threading.Thread(target=open_when_present,
                                          args=(path, created))
                reader.start()
                open_retrying(path)
                created.set()
                reader.join(timeout=30)
                assert not reader.is_alive()
        finally:
            sys.setswitchinterval(switch)
        assert not refused, refused[0]

    def test_state_survives_reconnect(self, tmp_path):
        path = queue_path(str(tmp_path / "svc"))
        q1 = JobQueue(path)
        q1.enqueue([_spec(seed=39)], cache=None)
        q1.claim("w1", lease_s=5.0, now=100.0)
        q1.close()
        q2 = JobQueue(path)
        jobs = q2.jobs()
        assert len(jobs) == 1 and jobs[0].state == RUNNING
        assert jobs[0].lease_owner == "w1"
        assert jobs[0].spec() == _spec(seed=39)

    def test_claims_follow_enqueue_order(self, tmp_path):
        queue = JobQueue(queue_path(str(tmp_path / "svc")))
        specs = [_spec(seed=s) for s in (9, 3, 7, 1)]
        queue.enqueue(specs, cache=None, now=100.0)
        claimed = [queue.claim("w1", lease_s=5.0, now=101.0).spec()
                   for _ in specs]
        assert claimed == specs
        assert [job.spec() for job in queue.jobs()] == specs

    def test_release_requeues_a_dead_workers_jobs(self, tmp_path):
        queue = JobQueue(queue_path(str(tmp_path / "svc")))
        queue.enqueue([_spec(seed=s) for s in (45, 46)], cache=None,
                      max_attempts=2)
        assert queue.death_budget() == 4
        dead = queue.claim("w1", lease_s=600.0, now=100.0)
        live = queue.claim("w2", lease_s=600.0, now=100.0)
        # No waiting for the lease: the job re-queues at once, as one
        # expiration and no burned attempt.
        assert queue.release("w1", now=101.0) == 1
        job = queue.job(dead.key)
        assert job.state == QUEUED and job.lease_owner is None
        assert job.expirations == 1 and job.attempts == 0
        assert queue.job(live.key).state == RUNNING  # others untouched
        assert queue.release("w1") == 0
        # The death that reaches its max_attempts fails the job instead.
        queue.claim("w3", lease_s=600.0, now=102.0)
        assert queue.release("w3", now=103.0) == 1
        job = queue.job(dead.key)
        assert job.state == FAILED and job.expirations == 2
        assert job.error == "worker process died"

    def test_queue_sustains_thousands_of_cells(self, tmp_path):
        """Enqueue scale check: thousands of rows, fast claims."""
        queue = JobQueue(queue_path(str(tmp_path / "svc")))
        specs = [_spec(seed=s, snapshot_every=0) for s in range(2000)]
        report = queue.enqueue(specs, cache=None)
        assert report.queued == 2000
        assert queue.counts()[QUEUED] == 2000
        seen = set()
        for i in range(50):
            job = queue.claim("w1", lease_s=60.0, now=100.0 + i)
            assert job is not None and job.key not in seen
            seen.add(job.key)
            assert queue.complete(job.key, "w1", now=101.0 + i)
        counts = queue.counts()
        assert counts[DONE] == 50 and counts[QUEUED] == 1950


class TestLeaseRenewer:
    def test_renews_on_cadence_and_raises_when_usurped(self, tmp_path):
        queue = JobQueue(queue_path(str(tmp_path / "svc")))
        queue.enqueue([_spec(seed=40)], cache=None)
        job = queue.claim("w1", lease_s=0.05, now=time.time())
        sim = _spec(seed=40).build()
        renewer = _LeaseRenewer(queue, job.key, "w1", lease_s=0.05)
        renewer(sim)  # inside the throttle: nothing written
        assert queue.job(job.key).progress is None
        renewer._last_renew = 0.0  # force the throttle open
        renewer(sim)  # live lease: renews fine, with the progress
        assert queue.job(job.key).progress["epoch"] == 0
        queue.claim("w2", lease_s=60.0, now=time.time() + 10.0)  # usurp
        renewer._last_renew = 0.0
        with pytest.raises(LeaseLost):
            renewer(sim)

    def test_usurped_progress_write_is_refused(self, tmp_path):
        """Regression: a usurped worker kept publishing its progress as
        the new owner's.  Its next throttled write is refused, raises
        LeaseLost, and the row keeps the new owner's progress and pid."""
        queue = JobQueue(queue_path(str(tmp_path / "svc")))
        spec = _spec(seed=47)
        queue.enqueue([spec], cache=None)
        job = queue.claim("w1", lease_s=0.2)
        sim = spec.build()
        loser = _LeaseRenewer(queue, job.key, "w1", lease_s=0.2)
        time.sleep(0.3)  # w1 stalls past its lease; w2 takes the job
        assert queue.claim("w2", lease_s=60.0).lease_owner == "w2"
        winner = {"pid": 4242, "epoch": 5, "accesses": 1234}
        assert queue.renew(job.key, "w2", lease_s=60.0, progress=winner)
        # w1 is past the throttle, so its next epoch writes -- refused.
        assert time.time() - loser._last_renew >= PROGRESS_INTERVAL_S
        with pytest.raises(LeaseLost):
            loser(sim)
        # Its failure verdict (with its final progress) is refused too.
        assert not queue.fail(job.key, "w1", "LeaseLost",
                              progress=loser.final())
        row = queue.job(job.key)
        assert row.state == RUNNING and row.lease_owner == "w2"
        assert row.progress == winner
        cell = build_status(str(tmp_path / "svc"))["cells"][0]
        assert cell["pid"] == 4242 and cell["epoch"] == 5
        assert "stalled" not in cell


# -- worker loop ---------------------------------------------------------------


class TestWorker:
    def test_drain_executes_everything(self, tmp_path):
        d = str(tmp_path / "svc")
        specs = [_spec(seed=s) for s in (41, 42)]
        queue = JobQueue(queue_path(d))
        queue.enqueue(specs)
        stats = Worker(d, lease_s=30.0, poll_s=0.05, drain=True).run()
        assert stats.executed == 2 and stats.failures == 0
        assert queue.counts()[DONE] == 2 and queue.drained()
        # Results landed in the shared cache, bit-identical to serial.
        cache = result_cache.resolve_cache(result_cache.DEFAULT)
        for spec in specs:
            assert _canon(cache.get(spec)) == _canon(spec.execute())
        # Each row carries its worker's final progress; no other store.
        cells = build_status(d)["cells"]
        assert [c["state"] for c in cells] == ["done", "done"]
        assert all(c["accesses"] > 0 and c["pid"] == os.getpid()
                   for c in cells)
        assert sorted(os.listdir(d)) == ["queue.db", "queue.db-shm",
                                         "queue.db-wal"]

    def test_commit_point_recovery_completes_from_cache(self, tmp_path):
        """A previous owner died after cache.put but before complete():
        the reclaiming worker must recover the result, not recompute."""
        d = str(tmp_path / "svc")
        spec = _spec(seed=43)
        queue = JobQueue(queue_path(d))
        queue.enqueue([spec])
        # Simulate the dead owner: claim, publish the result, vanish.
        dead = queue.claim("dead", lease_s=0.01, now=time.time() - 10.0)
        assert dead is not None
        result_cache.resolve_cache(result_cache.DEFAULT).put(
            spec, spec.execute())
        executed = {"n": 0}
        worker = Worker(d, lease_s=30.0, poll_s=0.05, drain=True)
        real_process = worker._process

        def counting_process(job):
            executed["n"] += 1
            real_process(job)

        worker._process = counting_process
        stats = worker.run()
        assert stats.recovered == 1 and stats.executed == 0
        job = queue.jobs()[0]
        assert job.state == DONE and job.expirations == 1
        assert job.resumed, "continuation accounting must mark resumed"
        assert executed["n"] == 1  # processed once, computed zero times

    def test_failed_job_exhausts_attempts(self, tmp_path):
        d = str(tmp_path / "svc")
        bad = _spec(seed=44, policy_kwargs={"no_such_option": True})
        queue = JobQueue(queue_path(d))
        queue.enqueue([bad], max_attempts=2)
        stats = Worker(d, lease_s=30.0, poll_s=0.05, drain=True).run()
        assert stats.failures == 2
        job = queue.jobs()[0]
        assert job.state == FAILED and job.attempts == 2
        assert "no_such_option" in (job.error or "")
        cells = build_status(d)["cells"]
        assert cells[0]["state"] == "failed"
        assert "no_such_option" in cells[0]["error"]


# -- HTTP status API -----------------------------------------------------------


class TestServer:
    @pytest.fixture
    def service_dir(self, tmp_path):
        d = str(tmp_path / "svc")
        queue = JobQueue(queue_path(d))
        queue.enqueue([_spec(seed=51), _spec(seed=52)])
        Worker(d, lease_s=30.0, poll_s=0.05, drain=True).run()
        return d

    @pytest.fixture
    def served(self, service_dir):
        server, thread = start_server(service_dir, port=0)
        port = server.server_address[1]
        yield f"http://127.0.0.1:{port}"
        server.shutdown()

    def _get(self, url):
        with urllib.request.urlopen(url, timeout=10) as resp:
            return resp.status, resp.headers.get("Content-Type", ""), \
                resp.read().decode()

    def test_healthz(self, served):
        status, _, body = self._get(served + "/healthz")
        assert status == 200 and body.strip() == "ok"

    def test_status_json(self, served):
        status, ctype, body = self._get(served + "/status")
        assert status == 200 and ctype.startswith("application/json")
        payload = json.loads(body)
        assert payload["jobs"]["done"] == 2 and payload["drained"]
        assert len(payload["cells"]) == 2
        # Each cell is its queue row, with the progress its worker wrote.
        assert all(c["state"] == "done" and c["accesses"] > 0
                   for c in payload["cells"])

    def test_metrics_grammar(self, served):
        status, ctype, body = self._get(served + "/metrics")
        assert status == 200 and "openmetrics" in ctype
        _validate_openmetrics(body)
        assert 'repro_service_jobs{state="done"} 2' in body
        assert "repro_service_claims_total 2" in body

    def test_dashboards(self, served):
        status, _, body = self._get(served + "/ascii")
        assert status == 200 and "queue: 2 jobs" in body
        status, ctype, body = self._get(served + "/")
        assert status == 200 and ctype.startswith("text/html")
        assert "queue: 2 jobs" in body

    def test_unknown_path_404(self, served):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._get(served + "/nope")
        assert excinfo.value.code == 404

    def test_build_status_shape(self, service_dir):
        status = build_status(service_dir)
        assert status["drained"] is True
        assert status["totals"]["claims"] == 2
        assert {c["state"] for c in status["cells"]} == {"done"}


# -- the worker supervisor -----------------------------------------------------


class TestSupervisor:
    def test_a_cell_that_kills_every_worker_fails_alone(self, monkeypatch):
        """A death counts against the job's own max_attempts (a sweep's
        retries + 1): the killer cell fails, the other cell is done."""
        from repro.sim.sweep import run_sweep

        killer, fine = _spec(seed=91), _spec(seed=92)
        process = Worker._process

        def die_on_killer(self, job):
            if job.key == killer.cache_key():
                os._exit(9)
            return process(self, job)

        monkeypatch.setattr(Worker, "_process", die_on_killer)
        outcomes = run_sweep([killer, fine], jobs=2, retries=1)
        assert outcomes[fine].ok
        assert not outcomes[killer].ok
        assert outcomes[killer].error == "worker process died"
        assert outcomes[killer].attempts == 2  # two claims, two deaths

    def test_deaths_beyond_the_budget_stop_the_supervisor(self, tmp_path,
                                                          monkeypatch):
        """Workers that die with no job to blame: one job of
        max_attempts=2 explains two deaths, the third stops the loop."""
        d = str(tmp_path / "svc")
        with JobQueue(queue_path(d)) as queue:
            queue.enqueue([_spec(seed=93)], max_attempts=2)
        deaths = str(tmp_path / "deaths")

        def die(self):
            with open(deaths, "a") as fh:
                fh.write("x")
            os._exit(3)

        monkeypatch.setattr(Worker, "run", die)
        with pytest.raises(RuntimeError, match="keep dying"):
            supervise(d, 1, drain=False, poll_s=0.05)
        with open(deaths) as fh:
            assert fh.read() == "xxx"  # replaced twice, then stopped
        with JobQueue(queue_path(d)) as queue:
            assert queue.job(_spec(seed=93).cache_key()).state == QUEUED


# -- CLI -----------------------------------------------------------------------


class TestServiceCli:
    def test_submit_start_status_drain_roundtrip(self, tmp_path, capsys):
        d = str(tmp_path / "svc")
        spec_file = str(tmp_path / "specs.json")
        with open(spec_file, "w") as fh:
            json.dump([_spec(seed=s).to_dict() for s in (61, 62)], fh)
        assert cli_main(["service", "submit", d, "--specs", spec_file]) == 0
        out = capsys.readouterr().out
        assert "2 queued" in out
        # Dedup on resubmission.
        assert cli_main(["service", "submit", d, "--specs", spec_file]) == 0
        assert "2 deduplicated" in capsys.readouterr().out
        assert cli_main(["service", "start", d, "--workers", "2",
                         "--drain", "--poll", "0.05"]) == 0
        assert "2 done" in capsys.readouterr().out
        assert cli_main(["service", "status", d]) == 0
        out = capsys.readouterr().out
        assert "queue: 2 jobs" in out and "2 done" in out
        assert cli_main(["service", "drain", d, "--timeout", "5"]) == 0
        assert "drained" in capsys.readouterr().out
        assert cli_main(["service", "status", d, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["jobs"]["done"] == 2

    def test_start_replaces_a_worker_that_dies(self, tmp_path, capsys,
                                               monkeypatch):
        """The only worker claims a job and dies: its lease is released at
        once and a replacement drains the queue."""
        d = str(tmp_path / "svc")
        with JobQueue(queue_path(d)) as queue:
            queue.enqueue([_spec(seed=s) for s in (63, 64)])
        died = str(tmp_path / "died")
        process = Worker._process

        def die_on_first_claim(self, job):
            try:
                os.close(os.open(died, os.O_CREAT | os.O_EXCL))
            except FileExistsError:
                return process(self, job)
            os._exit(9)

        monkeypatch.setattr(Worker, "_process", die_on_first_claim)
        assert cli_main(["service", "start", d, "--workers", "1",
                         "--drain", "--poll", "0.05"]) == 0
        assert "2 done" in capsys.readouterr().out
        with JobQueue(queue_path(d)) as queue:
            assert queue.drained()
            jobs = queue.jobs()
            workers = queue.workers()
        assert [job.state for job in jobs] == [DONE, DONE]
        killed = jobs[0]  # claims follow enqueue order
        assert killed.expirations == 1, "released at once, not after a lease"
        assert killed.attempts == 0 and killed.claims == 2
        assert len(workers) == 2
        assert {w["state"] for w in workers} == {"stopped"}

    def test_status_without_queue_exits_2(self, tmp_path, capsys):
        missing = str(tmp_path / "nothing")
        assert cli_main(["service", "status", missing]) == 2
        assert "no queue" in capsys.readouterr().err
        assert not os.path.exists(queue_path(missing))

    def test_submit_nothing_exits_2(self, tmp_path, capsys):
        assert cli_main(["service", "submit", str(tmp_path / "svc")]) == 2
        assert "nothing to enqueue" in capsys.readouterr().err


# -- chaos: SIGKILL a worker mid-epoch -----------------------------------------


def _await(predicate, timeout_s=60.0, poll_s=0.02):
    deadline = time.time() + timeout_s
    while time.time() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(poll_s)
    return None


@pytest.mark.slow
class TestServiceChaos:
    def test_sigkill_loses_nothing(self, tmp_path):
        """`service start` on 2 workers, 6 cells, SIGKILL one worker
        mid-job: every cell ends done exactly once, the killed job resumes
        from its checkpoint on a replacement worker, and all results are
        bit-identical to serial execution."""
        d = str(tmp_path / "svc")
        # MEDIUM_SCALE cells run ~1s each: long enough to SIGKILL one
        # mid-epoch after it has demonstrably checkpointed.
        specs = [
            _spec(workload=w, policy=p, seed=s, max_accesses=None,
                  scale=MEDIUM_SCALE)
            for (w, p), s in zip(
                [("silo", "memtis"), ("silo", "tiering-0.8"),
                 ("graph500", "memtis"), ("silo", "memtis-ns"),
                 ("graph500", "tiering-0.8"), ("silo", "autonuma")],
                (71, 72, 73, 74, 75, 76),
            )
        ]
        serial = {spec.cache_key(): _canon(spec.execute()) for spec in specs}
        with JobQueue(queue_path(d)) as queue:
            assert queue.enqueue(specs).queued == len(specs)

        service = _service_start(d, "--workers", "2", "--drain",
                                 "--poll", "0.05")
        report = str(tmp_path / "killed")
        _kill_a_checkpointed_worker(d, report)
        out, _ = service.communicate(timeout=300)
        assert service.returncode == 0, out
        assert os.path.exists(report), "no worker ever held a checkpointed job"
        with open(report) as fh:
            killed_key = fh.read()

        with JobQueue(queue_path(d)) as queue:
            jobs = queue.jobs()
            killed = queue.job(killed_key)
            workers = queue.workers()
        assert len(jobs) == len(specs), "no job lost or duplicated"
        assert all(job.state == DONE for job in jobs), \
            [(j.label, j.state, j.error) for j in jobs]
        assert killed.expirations == 1, "a kill is one lease expiry"
        assert killed.attempts == 0, "a kill is not a burned attempt"
        assert killed.claims == 2 and killed.resumed
        # The supervisor replaced the dead worker and stopped them all.
        assert len(workers) == 3
        assert {w["state"] for w in workers} == {"stopped"}

        # Exactly-once, bit-identical results.
        cache = result_cache.resolve_cache(result_cache.DEFAULT)
        for spec in specs:
            cached = cache.get(spec)
            assert cached is not None
            assert _canon(cached) == serial[spec.cache_key()], spec.label()

        # The status CLI agrees and exits clean.
        assert cli_main(["service", "status", d]) == 0

    def test_service_replaces_a_killed_worker_and_keeps_serving(
            self, tmp_path):
        """A long-lived `service start --port 0`: SIGKILL its worker and a
        replacement registers while the status API keeps answering (it
        runs outside the process that forks the replacement)."""
        d = str(tmp_path / "svc")
        with JobQueue(queue_path(d)) as queue:
            queue.enqueue([_spec(seed=77)])
        service = _service_start(d, "--workers", "1", "--port", "0",
                                 "--poll", "0.05")
        try:
            line = _read_line(service, "status API: ")
            assert line is not None, "the status API never came up"
            url = line.split()[2]

            def workers(state=None):
                with JobQueue(queue_path(d)) as q:
                    return [w for w in q.workers()
                            if state is None or w["state"] == state]

            def idle_after_one_job():
                with JobQueue(queue_path(d)) as q:
                    drained = q.drained()
                idle = workers("idle")
                return idle[0] if drained and idle else None

            first = _await(idle_after_one_job)
            assert first is not None, "the worker never drained the queue"
            os.kill(first["pid"], signal.SIGKILL)
            replacement = _await(lambda: [
                w for w in workers() if w["worker_id"] != first["worker_id"]])
            assert replacement, "no replacement worker registered"
            with urllib.request.urlopen(url + "healthz", timeout=10) as resp:
                assert resp.read() == b"ok\n"
            # Ctrl-C: the supervisor stops its workers and marks them.
            service.send_signal(signal.SIGINT)
            service.communicate(timeout=60)
            assert service.returncode == 0
            assert {w["state"] for w in workers()} == {"stopped"}
            assert len(workers()) == 2
        finally:
            if service.poll() is None:
                service.kill()
                service.communicate()

    def test_sigkill_in_run_sweep_costs_one_expiry(self, tmp_path):
        """run_sweep on 2 workers, SIGKILL one mid-job: only the killed
        cell is affected -- its lease is released at once, a replacement
        worker resumes it from its checkpoint -- and every outcome is
        bit-identical to serial execution."""
        from repro.sim.sweep import run_sweep

        d = str(tmp_path / "sweep")
        report = str(tmp_path / "killed")
        specs = [
            _spec(workload=w, policy=p, seed=s, max_accesses=None,
                  scale=MEDIUM_SCALE)
            for (w, p), s in zip(
                [("silo", "memtis"), ("graph500", "memtis"),
                 ("silo", "tiering-0.8"), ("graph500", "tiering-0.8")],
                (81, 82, 83, 84),
            )
        ]
        # The killer polls the queue from its own process: the sweep
        # forks its workers, and a thread of this process inside SQLite
        # at fork time would hand a worker a held lock.
        killer = multiprocessing.Process(
            target=_kill_a_checkpointed_worker, args=(d, report))
        killer.start()
        outcomes = run_sweep(specs, jobs=2, directory=d)
        killer.join(timeout=60)
        assert killer.exitcode == 0
        assert os.path.exists(report), "no worker ever held a checkpointed job"
        with open(report) as fh:
            killed = fh.read()

        assert all(o.ok for o in outcomes.values()), \
            [(o.spec.label(), o.error) for o in outcomes.values()]
        with JobQueue(queue_path(d)) as queue:
            job = queue.job(killed)
            # The dead worker too: the directory is free for the next sweep.
            assert {w["state"] for w in queue.workers()} == {"stopped"}
        assert job.state == DONE
        assert job.expirations == 1, "a kill is one lease expiry"
        assert job.attempts == 0, "a kill is not a burned attempt"
        assert job.claims == 2 and job.resumed
        victim_spec = next(s for s in specs if s.cache_key() == killed)
        assert outcomes[victim_spec].resumed
        assert outcomes[victim_spec].attempts == 2
        for spec in specs:
            assert _canon(outcomes[spec].result) == _canon(spec.execute()), \
                spec.label()

    def test_sigkill_mid_tee_publishes_no_partial_stream(self, tmp_path,
                                                         monkeypatch):
        """run_sweep on 2 workers over two cells sharing one stream:
        SIGKILL a worker while it tees.  Its copy is never published,
        any stream that is published is complete, and the retried cell
        equals an uninterrupted run."""
        from repro.sim import sweep
        from repro.sim.sweep import run_sweep
        from repro.workloads.registry import make_workload
        from repro.workloads.trace import TraceWorkload

        d = str(tmp_path / "sweep")
        report = str(tmp_path / "killed")
        scratch = []
        mkdtemp = sweep.tempfile.mkdtemp

        def recording_mkdtemp(*args, **kwargs):
            scratch.append(mkdtemp(*args, **kwargs))
            return scratch[-1]

        monkeypatch.setattr(sweep.tempfile, "mkdtemp", recording_mkdtemp)
        specs = [_spec(policy=p, seed=85, max_accesses=None,
                       scale=MEDIUM_SCALE) for p in ("memtis", "tiering-0.8")]
        key = specs[0].stream_key()
        full = make_workload("silo", MEDIUM_SCALE).total_accesses
        seen = []

        def progress(event):
            streams = os.path.join(scratch[-1], "streams")
            names = sorted(os.listdir(streams))
            seen.append((event.status, names, [
                TraceWorkload(os.path.join(streams, name, "stream"))
                .total_accesses for name in names if name == key]))

        killer = multiprocessing.Process(
            target=_kill_a_checkpointed_worker, args=(d, report))
        killer.start()
        outcomes = run_sweep(specs, jobs=2, directory=d, progress=progress)
        killer.join(timeout=60)
        assert killer.exitcode == 0
        assert os.path.exists(report), "no worker ever held a checkpointed job"
        with open(report + ".pid") as fh:
            pid = int(fh.read())

        retried = [names for status, names, _ in seen if status == "retry"]
        assert len(retried) == 1
        assert any(name.startswith(f"{key}.{pid}.") for name in retried[0]), \
            f"the killed worker was not teeing: {retried[0]}"
        assert all(accesses == [full] or accesses == []
                   for _, _, accesses in seen), seen
        assert not os.path.exists(scratch[0])
        for spec in specs:
            assert outcomes[spec].ok, outcomes[spec].error
            assert _canon(outcomes[spec].result) == _canon(spec.execute()), \
                spec.label()
        assert sum(o.resumed for o in outcomes.values()) == 1


def _service_start(directory: str, *flags: str) -> subprocess.Popen:
    """``repro service start DIRECTORY FLAGS`` in a child process whose
    stdout is piped back."""
    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH"))
                           if p)
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "service", "start", directory,
         *flags],
        stdout=subprocess.PIPE, text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )


def _read_line(proc: subprocess.Popen, prefix: str,
               timeout_s: float = 60.0):
    """The first line ``proc`` prints that starts with ``prefix``; None
    once it has printed nothing new for ``timeout_s``."""
    while select.select([proc.stdout], [], [], timeout_s)[0]:
        line = proc.stdout.readline()
        if not line or line.startswith(prefix):
            return line or None
    return None


def _kill_a_checkpointed_worker(directory: str, report: str) -> None:
    """SIGKILL the worker of the first running job that has taken a
    checkpoint; write that job's key to ``report`` and the worker's pid
    to ``report + ".pid"``."""

    def victim():
        if not os.path.exists(queue_path(directory)):
            return None
        with JobQueue(queue_path(directory)) as q:
            pids = {w["worker_id"]: w["pid"] for w in q.workers()}
            running = q.jobs(RUNNING)
        for job in running:
            checkpointed = (job.progress or {}).get("last_checkpoint_epoch")
            if checkpointed is not None and job.lease_owner in pids:
                return job.key, pids[job.lease_owner]
        return None

    found = _await(victim, timeout_s=60.0)
    if found is not None:
        os.kill(found[1], signal.SIGKILL)
        with open(report + ".pid", "w") as fh:
            fh.write(str(found[1]))
        with open(report, "w") as fh:
            fh.write(found[0])
