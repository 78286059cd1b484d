#!/usr/bin/env python
"""CI smoke for the sweep service: 2 workers, 8 cells, one SIGKILL.

End-to-end over the real CLI and its worker supervisor:

1. ``repro service submit`` enqueues an 8-cell QUICK_SCALE batch
   (2 workloads x 2 policies x 2 seeds, checkpointing every epoch);
2. ``repro service start --workers 2 --drain`` runs in a child process;
3. the worker that owns a job which has written a checkpoint is
   SIGKILL-ed (falling back to killing any live worker after a timeout
   if the batch runs too fast);
4. the supervisor releases the dead worker's lease, starts a
   replacement, and everything drains;
5. assertions: ``service start`` exits 0; every cell terminal
   ``done``/``cached``, nothing queued, running, lost or duplicated;
   every worker row ``stopped``; if the kill interrupted a job, a third
   worker was started and that job records one lease expiration and
   resumed-continuation accounting; ``repro service status`` exits 0.

Exit code 0 on success, 1 on any assertion failure.
"""

import argparse
import os
import signal
import subprocess
import sys
import tempfile
import time

from repro.cli import main as cli_main
from repro.service import (
    CACHED,
    DONE,
    RUNNING,
    JobQueue,
    build_status,
    queue_path,
)


def _victim(directory, any_worker):
    """``(job key, pid)`` of a worker running a checkpointed job, else
    None; with ``any_worker``, ``(None, pid)`` of any live worker."""
    with JobQueue(queue_path(directory)) as queue:
        workers = [w for w in queue.workers() if w["state"] != "stopped"]
        running = queue.jobs(RUNNING)
    pids = {w["worker_id"]: w["pid"] for w in workers}
    checkpointed = {
        cell["key"] for cell in build_status(directory)["cells"]
        if cell.get("last_checkpoint_epoch") is not None
    }
    for job in running:
        if job.lease_owner in pids and job.key[:16] in checkpointed:
            return job.key, pids[job.lease_owner]
    if any_worker and workers:
        return None, workers[0]["pid"]
    return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dir", default=None,
                        help="service directory (default: a tempdir)")
    parser.add_argument("--kill-timeout", type=float, default=30.0,
                        help="max seconds to wait for a worker to hold a "
                             "checkpointed job before killing one anyway")
    args = parser.parse_args()
    directory = args.dir or tempfile.mkdtemp(prefix="repro-service-smoke-")

    rc = cli_main([
        "service", "submit", directory,
        "--workloads", "silo", "graph500",
        "--policies", "memtis", "tiering-0.8",
        "--seeds", "1", "2",
        "--quick", "--snapshot-every", "1",
    ])
    assert rc == 0, f"submit exited {rc}"
    with JobQueue(queue_path(directory)) as queue:
        counts = queue.counts()
    total = sum(counts.values())
    assert total == 8, f"expected 8 jobs, queue holds {total}: {counts}"

    service = subprocess.Popen([
        sys.executable, "-m", "repro", "service", "start", directory,
        "--workers", "2", "--drain", "--poll", "0.05",
    ])
    killed_key = killed_pid = None
    deadline = time.time() + args.kill_timeout
    while service.poll() is None:
        found = _victim(directory, any_worker=time.time() > deadline)
        if found:
            killed_key, killed_pid = found
            os.kill(killed_pid, signal.SIGKILL)
            break
        time.sleep(0.02)
    if killed_pid is None:
        print("service drained before the kill window (batch ran fast); "
              "continuing without a kill")
    else:
        print(f"SIGKILL-ed worker pid {killed_pid} "
              + (f"holding job {killed_key[:16]}" if killed_key
                 else "between jobs"))
    rc = service.wait(timeout=300)
    assert rc == 0, f"service start exited {rc} (expected clean drain)"

    with JobQueue(queue_path(directory)) as queue:
        jobs = queue.jobs()
        counts = queue.counts()
        workers = queue.workers()
        assert len(jobs) == 8, f"jobs lost or duplicated: {len(jobs)}"
        assert counts[DONE] + counts[CACHED] == 8, \
            f"not all cells completed: {counts} " \
            f"{[(j.label, j.state, j.error) for j in jobs]}"
        assert {w["state"] for w in workers} == {"stopped"}, \
            f"workers left running: {workers}"
        if killed_key is not None:
            assert len(workers) == 3, \
                f"the supervisor must replace the dead worker: {workers}"
            killed = queue.job(killed_key)
            assert killed.state == DONE
            assert killed.expirations == 1, \
                "SIGKILL must surface as one lease expiration"
            assert killed.attempts == 0, "a kill is not a burned attempt"
            assert killed.claims >= 2 and killed.resumed, \
                "killed job must be completed by a resumed continuation"
            print(f"killed job {killed_key[:16]}: claims={killed.claims} "
                  f"expirations={killed.expirations} resumed={killed.resumed}")
    print(f"queue: {counts}; {len(workers)} workers, all stopped")

    status = subprocess.run(
        [sys.executable, "-m", "repro", "service", "status", directory],
        capture_output=True, text=True,
    )
    sys.stdout.write(status.stdout)
    assert status.returncode == 0, \
        f"service status exited {status.returncode}: {status.stderr}"
    print("service smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
