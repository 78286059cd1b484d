#!/usr/bin/env python
"""The conformance matrix over the full digest grid.

Runs every axis of ``tests/conformance.py`` (pinned, resume, traced,
scalar, vectorized, direct, cached, replayed, macro) on every cell of
``tests/data/policy_digests.json``: every registered policy on {silo,
btree, 603.bwaves, phaseflip} x {1:2, 1:8, 1:8 dram-cxl-nvm},
strict-checked.  Tier-1 runs the same axes on two cells per policy
(``tests/test_policy_zoo.py::test_conformance``, with ``pinned`` also
on every machine for phaseflip and 603.bwaves in ``test_policy_digest``);
this script is the only place the other cells run.

Usage (from the repository root; no options: the kernel modes are
axes)::

    PYTHONPATH=src python scripts/conformance_grid.py

Prints one line per cell and a summary line; exit code 0 when every
axis holds on every cell, 1 otherwise (the failures are listed).
"""

import os
import sys
import time
import traceback

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "tests"))

import conformance  # noqa: E402


def main():
    digests = conformance.load_digests()
    cells = conformance.DIGEST_CELLS
    failed = []
    checks = 0
    start = time.perf_counter()
    for i, cell in enumerate(cells, 1):
        failures = []
        for axis in conformance.AXES:
            checks += 1
            try:
                conformance.check(axis, cell, digests)
            except Exception as exc:  # every failure is reported, none stops
                failures.append(f"{axis}: {type(exc).__name__}: {exc}")
                failed.append((conformance.cell_id(*cell), failures[-1],
                               traceback.format_exc()))
        print(f"[{i}/{len(cells)}] {conformance.cell_id(*cell)}: "
              f"{'FAIL ' + '; '.join(failures) if failures else 'ok'}",
              flush=True)
    print(f"{len(cells)} cells, {checks} axis checks, {len(failed)} failing, "
          f"{time.perf_counter() - start:.0f} s")
    for cell, failure, trace in failed:
        print(f"FAIL {cell} {failure}\n{trace}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
