"""``repro.service``: the job queue and workers every sweep runs on.

:func:`~repro.sim.sweep.run_sweep` drains a queue with local worker
processes and returns; this package also keeps that queue alive as a
*service* -- a directory any number of workers, on any number of
invocations, pull from -- for evaluation matrices (policy x machine x
workload grids in the thousands of cells) that outlive one process:

* :mod:`repro.service.queue` -- a SQLite-backed job queue.  ``enqueue``
  accepts RunSpec batches, dedups by ``cache_key()`` and skips cells the
  persistent :mod:`repro.sim.cache` already holds; workers *pull* jobs
  under lease-based claims, so a ``kill -9``-ed worker's job re-queues
  (at once under the supervisor, else when its lease expires).
* :mod:`repro.service.worker` -- the pull-based worker loop and its
  one supervisor, which replaces a dead worker at once.  Cells with
  ``snapshot_every > 0`` resume from their last epoch checkpoint on
  reclaim, so preemption costs only the uncheckpointed tail; results
  stream into the shared :class:`~repro.sim.cache.ResultCache` *before*
  the queue transition (the cache write is the commit point -- a death
  between the two is recovered as a cache hit on reclaim, never as a
  recompute, so effective results are exactly-once).
* :mod:`repro.service.server` -- a stdlib ``http.server`` status API:
  queue/worker/cell state as JSON (``/status``), OpenMetrics
  (``/metrics``), and HTML/ASCII dashboards (``/``, ``/ascii``) built on
  :mod:`repro.analysis.top`.

CLI: ``python -m repro service submit|start|status|drain DIR``.
"""

from repro.service.queue import (
    CACHED,
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    EnqueueReport,
    Job,
    JobQueue,
    QueueBusy,
    heartbeat_dir,
    queue_path,
)
from repro.service.server import build_status, start_server
from repro.service.worker import (
    DEFAULT_LEASE_S,
    LeaseLost,
    Worker,
    WorkerStats,
    supervise,
    worker_main,
)

__all__ = [
    "JobQueue",
    "QueueBusy",
    "Job",
    "EnqueueReport",
    "QUEUED",
    "RUNNING",
    "DONE",
    "FAILED",
    "CACHED",
    "queue_path",
    "heartbeat_dir",
    "Worker",
    "WorkerStats",
    "worker_main",
    "supervise",
    "LeaseLost",
    "DEFAULT_LEASE_S",
    "build_status",
    "start_server",
]
