"""SQLite-backed job queue for the sweep service.

One database file (``<dir>/queue.db``) holds the whole service state:
the ``jobs`` table (one row per distinct ``RunSpec.cache_key()``) and a
``workers`` registry.  It is the only store of sweep state -- each
row holds its cell's state *and* the live progress of the attempt
running it -- and it backs every sweep: a service directory, and the
directory each :func:`~repro.sim.sweep.run_sweep` drains.  The file
carries its layout version in ``PRAGMA user_version``
(:data:`SCHEMA_VERSION`); a file of another version is refused with
:class:`QueueFormatError`, never migrated.  SQLite gives us the two
properties a multi-worker queue actually needs for free: durable state
across ``kill -9`` (WAL journal) and atomic claim transitions (``BEGIN
IMMEDIATE`` serialises writers), with no daemon to operate.

Lease protocol
==============

A worker *claims* a queued job: the row moves ``queued -> running`` with
``lease_owner`` / ``lease_expires_at`` set and ``claims`` incremented.
While executing, the worker *renews* the lease from the engine's epoch
hook, writing the cell's progress (epoch, accesses, rate, ETA, ...) in
the same owner-guarded UPDATE; a renewal that discovers the lease was
usurped is refused -- the row keeps the new owner's progress -- and
tells the worker to abandon the cell.  ``complete`` and ``fail`` write
the attempt's final progress.  Every claim first sweeps expired leases
back to ``queued`` (incrementing ``expirations``), so a SIGKILL-ed
worker's job is picked up by any surviving worker after at most one
lease period.  The supervisor that runs every worker process
(:func:`~repro.service.worker.supervise`) need not wait:
:meth:`JobQueue.release` expires a dead worker's lease at once.

``expirations`` (lease losses -- crashes, preemption) is deliberately a
*separate* counter from ``attempts`` (executions that raised).  Each
budget ends at the job's ``max_attempts``: genuine failures burn
``attempts`` until ``max_attempts`` marks the job ``failed``, and a job
whose worker died under a supervisor fails once its ``expirations``
reach ``max_attempts``.  A lease that merely lapses (a worker with no
supervisor) never exhausts anything.

Stall detection reads the same rows: a ``running`` job whose lease has
lapsed has no live owner, and a queue is *stalled*
(:meth:`JobQueue.stalled`) when work is left but no lease is live and
no worker was seen, nor any job enqueued, within
:data:`LIVE_WORKER_S`.

Exactly-once results
====================

The worker's commit point is the :class:`~repro.sim.cache.ResultCache`
write, which happens *before* the ``running -> done`` queue transition:

========================  =============================================
worker dies ...           recovery
========================  =============================================
mid-epoch                 lease expires; reclaim resumes from the last
                          epoch checkpoint (``snapshot_every > 0``) or
                          reruns from scratch -- deterministic either way
after ``cache.put``,      lease expires; the reclaiming worker finds the
before ``complete``       finished result in the cache and completes the
                          job without recomputing (``resumed`` accounting
                          still records the continuation)
after ``complete``        nothing to do -- the job is terminal
========================  =============================================

``complete`` is guarded by ``state = 'running'`` (the first completer
wins; a duplicate from a usurped worker is a no-op -- results are
deterministic and bit-identical, so it does not matter whose result
landed in the cache).  ``fail`` is additionally guarded by
``lease_owner`` so a usurped loser can never clobber the winner.
"""

from __future__ import annotations

import json
import os
import sqlite3
import time
import uuid
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional

from repro.sim import cache as result_cache
from repro.sim.runner import RunSpec, cache_key_of

QUEUE_DB = "queue.db"

#: Layout of ``queue.db`` (``PRAGMA user_version``).  Files written
#: before the ``progress`` column existed read 0 and are refused.
SCHEMA_VERSION = 1

#: Job states. ``queued`` and ``running`` are live; the rest terminal.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CACHED = "cached"

JOB_STATES = (QUEUED, RUNNING, DONE, FAILED, CACHED)

#: A worker row not ``stopped`` counts as live for this long after its
#: last beat (idle workers beat every poll period; running ones hold a
#: lease, which is checked on its own).
LIVE_WORKER_S = 30.0


class QueueBusy(RuntimeError):
    """A fresh sweep was refused a queue file that is still in use."""


class QueueFormatError(RuntimeError):
    """A queue file was written with another :data:`SCHEMA_VERSION`."""


_SCHEMA = ("""
CREATE TABLE jobs (
    key              TEXT PRIMARY KEY,   -- RunSpec.cache_key()
    spec             TEXT NOT NULL,      -- RunSpec.to_dict() as JSON
    label            TEXT NOT NULL,
    state            TEXT NOT NULL,
    lease_owner      TEXT,
    lease_expires_at REAL,
    claims           INTEGER NOT NULL DEFAULT 0,
    attempts         INTEGER NOT NULL DEFAULT 0,
    expirations      INTEGER NOT NULL DEFAULT 0,
    max_attempts     INTEGER NOT NULL DEFAULT 3,
    resumed          INTEGER NOT NULL DEFAULT 0,
    error            TEXT,
    enqueued_at      REAL NOT NULL,
    started_at       REAL,
    finished_at      REAL,
    wall_s           REAL,
    progress         TEXT                -- the running attempt's, as JSON
)""", """
CREATE INDEX jobs_state ON jobs (state, enqueued_at)""", """
CREATE TABLE workers (
    worker_id   TEXT PRIMARY KEY,
    pid         INTEGER,
    started_at  REAL,
    last_seen   REAL,
    state       TEXT NOT NULL,          -- idle | running | stopped
    current_key TEXT,
    completed   INTEGER NOT NULL DEFAULT 0
)""")


def queue_path(directory: str) -> str:
    """The service database path inside a service directory."""
    return os.path.join(os.fspath(directory), QUEUE_DB)


@dataclass
class Job:
    """One queue row, decoded."""

    key: str
    spec_json: str
    label: str
    state: str
    lease_owner: Optional[str] = None
    lease_expires_at: Optional[float] = None
    claims: int = 0
    attempts: int = 0
    expirations: int = 0
    max_attempts: int = 3
    resumed: bool = False
    error: Optional[str] = None
    enqueued_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    wall_s: Optional[float] = None
    #: The latest progress of the attempt running (or last run) this job.
    progress: Optional[Dict[str, Any]] = None

    def spec(self) -> RunSpec:
        return RunSpec.from_dict(json.loads(self.spec_json))


def _job_from_row(row: sqlite3.Row) -> Job:
    return Job(
        key=row["key"], spec_json=row["spec"], label=row["label"],
        state=row["state"], lease_owner=row["lease_owner"],
        lease_expires_at=row["lease_expires_at"], claims=row["claims"],
        attempts=row["attempts"], expirations=row["expirations"],
        max_attempts=row["max_attempts"], resumed=bool(row["resumed"]),
        error=row["error"], enqueued_at=row["enqueued_at"],
        started_at=row["started_at"], finished_at=row["finished_at"],
        wall_s=row["wall_s"],
        progress=json.loads(row["progress"]) if row["progress"] else None,
    )


def _progress_json(progress: Optional[Dict[str, Any]]) -> Optional[str]:
    return None if progress is None else json.dumps(progress)


@dataclass
class EnqueueReport:
    """What :meth:`JobQueue.enqueue` did with a batch of specs."""

    queued: int = 0       #: new jobs added to the queue
    deduped: int = 0      #: specs already present (any live/terminal state)
    cached: int = 0       #: specs whose result the cache already holds
    requeued: int = 0     #: previously-failed jobs given a fresh budget

    @property
    def total(self) -> int:
        return self.queued + self.deduped + self.cached + self.requeued


class JobQueue:
    """Handle on the service database.  One connection per instance.

    Instances are cheap; they are NOT thread-safe -- create one per
    thread/process (the HTTP server opens a fresh one per request, and
    forked workers must construct their own post-fork).
    """

    def __init__(self, path: str, timeout_s: float = 30.0):
        self.path = os.fspath(path)
        directory = os.path.dirname(self.path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        self._db = sqlite3.connect(self.path, timeout=timeout_s)
        self._db.row_factory = sqlite3.Row
        try:
            # Checked before WAL is set, so a refused file stays as it was.
            empty = self._check_version()
            if empty:
                self._set_wal(timeout_s)
            self._db.execute("PRAGMA synchronous=NORMAL")
            if empty:
                with self._db:
                    self._db.execute("BEGIN IMMEDIATE")
                    if self._check_version():  # nobody created it since
                        for statement in _SCHEMA:
                            self._db.execute(statement)
                        self._db.execute(
                            f"PRAGMA user_version = {SCHEMA_VERSION}")
        except BaseException:
            self._db.close()
            raise

    def _set_wal(self, timeout_s: float) -> None:
        """Switch a file with no schema yet to WAL, waiting for rivals.

        WAL survives kill -9 of any client and lets readers (the status
        server) proceed during writer transactions.  It persists in the
        file, and the schema is created only after the switch.  The
        switch writes an empty file's header; a client switching at the
        same moment gets "database is locked" without the busy handler
        running, so retry until ``timeout_s``.
        """
        deadline = time.monotonic() + timeout_s
        while True:
            try:
                self._db.execute("PRAGMA journal_mode=WAL")
                return
            except sqlite3.OperationalError as exc:
                if "locked" not in str(exc) or time.monotonic() > deadline:
                    raise
                time.sleep(0.001)

    def _check_version(self) -> bool:
        """True for a file with no tables yet; raises for another layout.

        Version and tables are read in one statement, so one snapshot: a
        creator committing the schema between two reads would otherwise
        make its fresh file look like a format-0 file with tables.
        """
        version, tables = self._db.execute(
            "SELECT (SELECT user_version FROM pragma_user_version),"
            " (SELECT COUNT(*) FROM sqlite_master)").fetchone()
        if version == SCHEMA_VERSION:
            return False
        if version == 0 and tables == 0:
            return True
        raise QueueFormatError(
            f"{self.path} is a queue file of format {version}, not "
            f"{SCHEMA_VERSION}; finish its sweep with the release that "
            f"wrote it, or delete the file and submit again")

    def close(self) -> None:
        self._db.close()

    def __enter__(self) -> "JobQueue":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- submission --------------------------------------------------------

    def enqueue(
        self,
        specs: Iterable[RunSpec],
        cache=result_cache.DEFAULT,
        max_attempts: int = 3,
        now: Optional[float] = None,
        fresh: bool = False,
    ) -> EnqueueReport:
        """Add a batch of specs; dedups by ``cache_key()``.

        Duplicate specs within the batch collapse to one job.  A spec
        already present in the queue (any state except ``failed``) is
        counted ``deduped`` and left alone; a ``failed`` job is re-queued
        with a fresh attempt budget.  A spec whose result the persistent
        cache already holds is recorded terminal ``cached`` without ever
        reaching a worker (checked specs always execute -- a cache hit
        would run no sanitizer).

        ``fresh=True`` starts a new sweep in this file: every old job and
        worker row is dropped first, in the same transaction.  It raises
        :class:`QueueBusy` instead when the queue is in use -- a job is
        queued or under an unexpired lease, or a worker not ``stopped``
        was seen in the last :data:`LIVE_WORKER_S` seconds.
        """
        now = time.time() if now is None else now
        cache = result_cache.resolve_cache(cache)
        report = EnqueueReport()
        with self._db:
            self._db.execute("BEGIN IMMEDIATE")
            if fresh:
                self._drop_idle_rows(now)
            for spec in dict.fromkeys(specs):
                spec_dict = spec.to_dict()
                key = cache_key_of(spec_dict)
                row = self._db.execute(
                    "SELECT state FROM jobs WHERE key = ?", (key,)
                ).fetchone()
                if row is not None:
                    if row["state"] == FAILED:
                        self._db.execute(
                            "UPDATE jobs SET state = ?, error = NULL,"
                            " attempts = 0, max_attempts = ?,"
                            " lease_owner = NULL, lease_expires_at = NULL,"
                            " finished_at = NULL WHERE key = ?",
                            (QUEUED, int(max_attempts), key),
                        )
                        report.requeued += 1
                    else:
                        report.deduped += 1
                    continue
                hit = (
                    cache.contains(spec)
                    if cache is not None and not spec.check_requested
                    else False
                )
                state = CACHED if hit else QUEUED
                self._db.execute(
                    "INSERT INTO jobs (key, spec, label, state,"
                    " max_attempts, enqueued_at, finished_at)"
                    " VALUES (?, ?, ?, ?, ?, ?, ?)",
                    (key, json.dumps(spec_dict, sort_keys=True),
                     spec.label(), state, int(max_attempts), now,
                     now if hit else None),
                )
                if hit:
                    report.cached += 1
                else:
                    report.queued += 1
        return report

    def _liveness(self, now: float) -> sqlite3.Row:
        """Counts that say whether anyone is using this queue: jobs
        ``queued``, ``running``, under a live lease (``leased``) and
        enqueued within :data:`LIVE_WORKER_S` (``recent``), and
        ``workers`` not ``stopped`` seen within it."""
        since = now - LIVE_WORKER_S
        return self._db.execute(
            "SELECT"
            " (SELECT COUNT(*) FROM jobs WHERE state = ?) AS queued,"
            " (SELECT COUNT(*) FROM jobs WHERE state = ?) AS running,"
            " (SELECT COUNT(*) FROM jobs WHERE state = ?"
            "  AND lease_expires_at >= ?) AS leased,"
            " (SELECT COUNT(*) FROM jobs WHERE enqueued_at >= ?) AS recent,"
            " (SELECT COUNT(*) FROM workers WHERE state != 'stopped'"
            "  AND last_seen >= ?) AS workers",
            (QUEUED, RUNNING, RUNNING, now, since, since),
        ).fetchone()

    def _drop_idle_rows(self, now: float) -> None:
        """Delete every row, or raise :class:`QueueBusy` if any is live."""
        counts = self._liveness(now)
        live = counts["queued"] + counts["leased"]
        workers = counts["workers"]
        if live or workers:
            raise QueueBusy(
                f"{self.path} is in use ({live} live job(s), {workers} "
                f"live worker(s)); use another directory, or delete the "
                f"file if its sweep is dead")
        self._db.execute("DELETE FROM jobs")
        self._db.execute("DELETE FROM workers")

    # -- claims / leases ---------------------------------------------------

    def claim(self, worker_id: str, lease_s: float,
              now: Optional[float] = None) -> Optional[Job]:
        """Pull one job: expire stale leases, then take the oldest queued.

        Returns ``None`` when nothing is claimable.  The claim is atomic
        (``BEGIN IMMEDIATE``), so two workers can never hold the same
        job, and every claim pass first re-queues jobs whose lease
        expired -- a killed worker's job becomes claimable after at most
        one lease period, with ``expirations`` (not ``attempts``)
        recording the loss.
        """
        now = time.time() if now is None else now
        with self._db:
            self._db.execute("BEGIN IMMEDIATE")
            self._db.execute(
                "UPDATE jobs SET state = ?, lease_owner = NULL,"
                " lease_expires_at = NULL, expirations = expirations + 1"
                " WHERE state = ? AND lease_expires_at IS NOT NULL"
                " AND lease_expires_at < ?",
                (QUEUED, RUNNING, now),
            )
            row = self._db.execute(
                "SELECT * FROM jobs WHERE state = ?"
                " ORDER BY enqueued_at, rowid LIMIT 1",
                (QUEUED,),
            ).fetchone()
            if row is None:
                return None
            self._db.execute(
                "UPDATE jobs SET state = ?, lease_owner = ?,"
                " lease_expires_at = ?, claims = claims + 1, progress = NULL,"
                " started_at = COALESCE(started_at, ?) WHERE key = ?",
                (RUNNING, worker_id, now + float(lease_s), now, row["key"]),
            )
            fresh = self._db.execute(
                "SELECT * FROM jobs WHERE key = ?", (row["key"],)
            ).fetchone()
            return _job_from_row(fresh)

    def release(self, worker_id: str, now: Optional[float] = None) -> int:
        """Expire now every lease ``worker_id`` holds; returns the count.

        For a supervisor that saw the worker die: its jobs re-queue at
        once, each recording one expiration, instead of after a lease
        period.  A job whose expirations would reach its own
        ``max_attempts`` is marked ``failed`` instead, so a cell that
        kills every worker that runs it cannot loop forever.
        """
        now = time.time() if now is None else now
        with self._db:
            self._db.execute("BEGIN IMMEDIATE")
            rows = self._db.execute(
                "SELECT key, expirations, max_attempts FROM jobs"
                " WHERE state = ? AND lease_owner = ?",
                (RUNNING, worker_id),
            ).fetchall()
            for row in rows:
                exhausted = row["expirations"] + 1 >= row["max_attempts"]
                self._db.execute(
                    "UPDATE jobs SET state = ?, expirations = expirations + 1,"
                    " lease_owner = NULL, lease_expires_at = NULL,"
                    " error = COALESCE(?, error), finished_at = ?"
                    " WHERE key = ?",
                    (FAILED if exhausted else QUEUED,
                     "worker process died" if exhausted else None,
                     now if exhausted else None, row["key"]),
                )
            return len(rows)

    def death_budget(self) -> int:
        """How many worker deaths the jobs could cost before all fail.

        :meth:`release` fails a job after ``max_attempts`` deaths, and a
        ``cached`` row never reaches a worker; a supervisor that sees
        more deaths than this has workers dying for another reason.
        """
        return self._db.execute(
            "SELECT COALESCE(SUM(max_attempts), 0) AS n FROM jobs"
            " WHERE state != ?", (CACHED,),
        ).fetchone()["n"]

    def renew(self, key: str, worker_id: str, lease_s: float,
              progress: Optional[Dict[str, Any]] = None,
              now: Optional[float] = None) -> bool:
        """Extend a held lease and record the attempt's ``progress``.

        Owner-guarded: False means the lease was lost (abandon the
        cell), and neither the lease nor the progress was written.
        """
        now = time.time() if now is None else now
        with self._db:
            cur = self._db.execute(
                "UPDATE jobs SET lease_expires_at = ?,"
                " progress = COALESCE(?, progress) WHERE key = ?"
                " AND state = ? AND lease_owner = ?",
                (now + float(lease_s), _progress_json(progress), key,
                 RUNNING, worker_id),
            )
            return cur.rowcount > 0

    # -- terminal transitions ----------------------------------------------

    def complete(self, key: str, worker_id: str, wall_s: float = 0.0,
                 resumed: bool = False,
                 progress: Optional[Dict[str, Any]] = None,
                 now: Optional[float] = None) -> bool:
        """``running -> done``, with the final ``progress``.  First
        completer wins; duplicates no-op.

        Deliberately NOT owner-guarded: a worker that lost its lease
        after the cache commit point still holds the (deterministic,
        bit-identical) result -- whoever gets here first records it.
        """
        now = time.time() if now is None else now
        with self._db:
            cur = self._db.execute(
                "UPDATE jobs SET state = ?, finished_at = ?, wall_s = ?,"
                " resumed = ?, error = NULL, lease_owner = ?,"
                " lease_expires_at = NULL, progress = COALESCE(?, progress)"
                " WHERE key = ? AND state = ?",
                (DONE, now, float(wall_s), 1 if resumed else 0,
                 worker_id, _progress_json(progress), key, RUNNING),
            )
            return cur.rowcount > 0

    def fail(self, key: str, worker_id: str, error: str,
             progress: Optional[Dict[str, Any]] = None,
             now: Optional[float] = None) -> bool:
        """Record a raising execution and its last ``progress``;
        owner-guarded.

        Burns one ``attempts``; the job re-queues until ``max_attempts``
        genuine failures mark it ``failed``.  A usurped worker (lease
        reclaimed by someone else) cannot fail the job -- only the
        current owner's verdict counts.
        """
        now = time.time() if now is None else now
        with self._db:
            self._db.execute("BEGIN IMMEDIATE")
            row = self._db.execute(
                "SELECT attempts, max_attempts FROM jobs WHERE key = ?"
                " AND state = ? AND lease_owner = ?",
                (key, RUNNING, worker_id),
            ).fetchone()
            if row is None:
                return False
            attempts = row["attempts"] + 1
            state = FAILED if attempts >= row["max_attempts"] else QUEUED
            self._db.execute(
                "UPDATE jobs SET state = ?, attempts = ?, error = ?,"
                " lease_owner = NULL, lease_expires_at = NULL,"
                " finished_at = ?, progress = COALESCE(?, progress)"
                " WHERE key = ?",
                (state, attempts, str(error),
                 now if state == FAILED else None,
                 _progress_json(progress), key),
            )
            return True

    # -- worker registry ---------------------------------------------------

    def register_worker(self, worker_id: str, pid: Optional[int] = None,
                        now: Optional[float] = None) -> None:
        now = time.time() if now is None else now
        with self._db:
            self._db.execute(
                "INSERT INTO workers (worker_id, pid, started_at, last_seen,"
                " state) VALUES (?, ?, ?, ?, 'idle')"
                " ON CONFLICT(worker_id) DO UPDATE SET pid = excluded.pid,"
                " last_seen = excluded.last_seen, state = 'idle'",
                (worker_id, pid if pid is not None else os.getpid(), now, now),
            )

    def worker_beat(self, worker_id: str, state: str,
                    current_key: Optional[str] = None,
                    completed: Optional[int] = None,
                    now: Optional[float] = None) -> None:
        now = time.time() if now is None else now
        with self._db:
            self._db.execute(
                "UPDATE workers SET last_seen = ?, state = ?,"
                " current_key = ?, completed = COALESCE(?, completed)"
                " WHERE worker_id = ?",
                (now, state, current_key, completed, worker_id),
            )

    def workers(self) -> List[Dict[str, Any]]:
        rows = self._db.execute(
            "SELECT * FROM workers ORDER BY worker_id"
        ).fetchall()
        return [dict(row) for row in rows]

    # -- inspection --------------------------------------------------------

    def job(self, key: str) -> Optional[Job]:
        row = self._db.execute(
            "SELECT * FROM jobs WHERE key = ?", (key,)
        ).fetchone()
        return _job_from_row(row) if row is not None else None

    def jobs(self, state: Optional[str] = None) -> List[Job]:
        if state is None:
            rows = self._db.execute(
                "SELECT * FROM jobs ORDER BY enqueued_at, rowid"
            ).fetchall()
        else:
            rows = self._db.execute(
                "SELECT * FROM jobs WHERE state = ?"
                " ORDER BY enqueued_at, rowid", (state,)
            ).fetchall()
        return [_job_from_row(row) for row in rows]

    def counts(self) -> Dict[str, int]:
        """``{state: count}`` with every known state present (0s kept)."""
        counts = {state: 0 for state in JOB_STATES}
        for row in self._db.execute(
            "SELECT state, COUNT(*) AS n FROM jobs GROUP BY state"
        ):
            counts[row["state"]] = row["n"]
        return counts

    def totals(self) -> Dict[str, int]:
        row = self._db.execute(
            "SELECT COALESCE(SUM(claims), 0) AS claims,"
            " COALESCE(SUM(attempts), 0) AS attempts,"
            " COALESCE(SUM(expirations), 0) AS expirations,"
            " COALESCE(SUM(resumed), 0) AS resumed FROM jobs"
        ).fetchone()
        return dict(row)

    def drained(self) -> bool:
        """True when no job is (or can become) live."""
        row = self._db.execute(
            "SELECT COUNT(*) AS n FROM jobs WHERE state IN (?, ?)",
            (QUEUED, RUNNING),
        ).fetchone()
        return row["n"] == 0

    def stalled(self, now: Optional[float] = None) -> bool:
        """True when work is left that nobody is doing.

        A job is ``queued`` or ``running``, yet no lease is live and no
        worker was seen, nor any job enqueued, within
        :data:`LIVE_WORKER_S`: every worker that served this queue is
        gone.  ``repro top`` exits on it instead of polling forever.
        """
        counts = self._liveness(time.time() if now is None else now)
        return bool(counts["queued"] + counts["running"]) and not (
            counts["leased"] or counts["recent"] or counts["workers"])

    def snapshot(self, now: Optional[float] = None) -> Dict[str, Any]:
        """Queue and worker state for the status API (JSON-safe; the
        per-cell view is :func:`repro.service.server.build_status`)."""
        now = time.time() if now is None else now
        return {
            "schema": SCHEMA_VERSION,
            "path": self.path,
            "now": now,
            "jobs": self.counts(),
            "totals": self.totals(),
            "drained": self.drained(),
            "stalled": self.stalled(now),
            "workers": self.workers(),
        }


def new_worker_id() -> str:
    """A short, unique worker identity (hostname-free; pids recycle)."""
    return f"w-{uuid.uuid4().hex[:8]}"
