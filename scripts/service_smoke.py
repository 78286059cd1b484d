#!/usr/bin/env python
"""CI smoke for the sweep service: 2 workers, 8 cells, one SIGKILL.

End-to-end over the real CLI and worker entry points:

1. ``repro service submit`` enqueues an 8-cell QUICK_SCALE batch
   (2 workloads x 2 policies x 2 seeds, checkpointing every epoch);
2. two worker processes start draining it;
3. one worker is SIGKILL-ed as soon as it owns a job that has written a
   checkpoint (falling back to a timed kill if the batch runs too fast);
4. a replacement worker joins, everything drains;
5. assertions: every cell terminal ``done``/``cached``, nothing queued,
   running, lost or duplicated; if the kill interrupted a job, that job
   records a lease expiration and resumed-continuation accounting, and
   ``repro service status`` exits 0.

Exit code 0 on success, 1 on any assertion failure.
"""

import argparse
import multiprocessing
import os
import signal
import subprocess
import sys
import tempfile
import time

from repro.cli import main as cli_main
from repro.obs.heartbeat import read_heartbeats
from repro.service import (
    CACHED,
    DONE,
    RUNNING,
    JobQueue,
    heartbeat_dir,
    queue_path,
    worker_main,
)

LEASE_S = 2.0


def _spawn(ctx, directory, worker_id):
    proc = ctx.Process(
        target=worker_main, args=(directory,),
        kwargs=dict(worker_id=worker_id, lease_s=LEASE_S, poll_s=0.05,
                    drain=True),
    )
    proc.start()
    return proc


def _checkpointed_victim_job(directory):
    """Key of a victim-owned running job with a checkpoint, else None."""
    with JobQueue(queue_path(directory)) as queue:
        running = queue.jobs(RUNNING)
    checkpointed = {
        cell.get("key") for cell in read_heartbeats(heartbeat_dir(directory))
        if cell.get("last_checkpoint_epoch") is not None
    }
    for job in running:
        if job.lease_owner == "victim" and job.key[:16] in checkpointed:
            return job.key
    return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dir", default=None,
                        help="service directory (default: a tempdir)")
    parser.add_argument("--kill-timeout", type=float, default=30.0,
                        help="max seconds to wait for a checkpointed "
                             "victim job before killing anyway")
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

    ctx = multiprocessing.get_context(
        "fork" if "fork" in multiprocessing.get_all_start_methods()
        else None
    )
    victim = _spawn(ctx, directory, "victim")
    survivor = _spawn(ctx, directory, "survivor")

    killed_key = None
    deadline = time.time() + args.kill_timeout
    while time.time() < deadline and victim.is_alive():
        killed_key = _checkpointed_victim_job(directory)
        if killed_key:
            break
        time.sleep(0.02)
    if victim.is_alive():
        os.kill(victim.pid, signal.SIGKILL)
        print(f"SIGKILL-ed victim (pid {victim.pid}) "
              + (f"holding job {killed_key[:16]}" if killed_key
                 else "between jobs"))
    else:
        print("victim drained its share before the kill window "
              "(batch ran fast); continuing without a mid-job kill")
    victim.join(timeout=30)

    replacement = _spawn(ctx, directory, "replacement")
    for proc in (survivor, replacement):
        proc.join(timeout=300)
        assert proc.exitcode == 0, \
            f"worker exited {proc.exitcode} (expected clean drain)"

    with JobQueue(queue_path(directory)) as queue:
        jobs = queue.jobs()
        counts = queue.counts()
        assert len(jobs) == 8, f"jobs lost or duplicated: {len(jobs)}"
        assert counts[DONE] + counts[CACHED] == 8, \
            f"not all cells completed: {counts} " \
            f"{[(j.label, j.state, j.error) for j in jobs]}"
        if killed_key is not None:
            killed = queue.job(killed_key)
            assert killed.state == DONE
            assert killed.expirations >= 1, \
                "SIGKILL must surface as a lease expiration"
            assert killed.attempts == 0, "a kill is not a burned attempt"
            assert killed.claims >= 2 and killed.resumed, \
                "killed job must be completed by a resumed continuation"
            print(f"killed job {killed_key[:16]}: claims={killed.claims} "
                  f"expirations={killed.expirations} resumed={killed.resumed}")
    print(f"queue: {counts}")

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
