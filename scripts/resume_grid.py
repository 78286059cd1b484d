#!/usr/bin/env python
"""Resume axis of the conformance matrix over the full digest grid.

For every cell of ``tests/data/policy_digests.json`` (every registered
policy on {silo, btree, 603.bwaves, phaseflip} x {1:2, 1:8, 1:8
dram-cxl-nvm}, strict-checked), run the cell writing a checkpoint at
every epoch, then resume a fresh build from its first, middle and last
checkpoint.  The checkpointing run and every resume must reproduce the
cell's pinned digest: ``run(N) == run(k) -> save -> load -> run(N-k)``.

Usage (from the repository root; ``REPRO_SCALAR_KERNELS`` picks the
kernel mode as for any run)::

    PYTHONPATH=src python scripts/resume_grid.py

Exit code 0 when every cell holds, 1 otherwise (the failing resumes are
listed).
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "tests"))

from test_policy_zoo import (  # noqa: E402
    DIGEST_CELLS,
    _cell_id,
    _digest_spec,
    _load_digests,
    checkpoint_and_resume,
    policy_digest,
)


def check_cell(cell, pinned):
    """(resumes run, failure messages) for one cell."""
    spec = _digest_spec(*cell)
    captured, resumed, checkpoints = checkpoint_and_resume(
        spec.build, lambda sim: policy_digest(sim.run()))
    failures = [] if captured == pinned else ["checkpointing run"]
    if not checkpoints:
        failures.append("no checkpoint was written")
    failures += [f"resume from epoch {k} of {checkpoints}"
                 for k, digest in resumed.items() if digest != pinned]
    return len(resumed), failures


def main():
    digests = _load_digests()
    failed = []
    resumes = 0
    start = time.perf_counter()
    for i, cell in enumerate(DIGEST_CELLS, 1):
        cell_id = _cell_id(*cell)
        ran, failures = check_cell(cell, digests[cell_id])
        resumes += ran
        failed += [f"{cell_id}: {f}" for f in failures]
        print(f"[{i}/{len(DIGEST_CELLS)}] {cell_id}: "
              f"{'FAIL ' + '; '.join(failures) if failures else 'ok'}",
              flush=True)
    print(f"{len(DIGEST_CELLS)} cells, {resumes} resumes, {len(failed)} "
          f"failing, {time.perf_counter() - start:.0f} s")
    for line in failed:
        print("FAIL", line)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
