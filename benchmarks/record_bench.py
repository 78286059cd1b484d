"""Pinned inputs of the repository benchmark's trace replay.

``perfbench/`` imports these: the silo trace scale (~10.2M accesses),
the replay event size, the coalescer target, the default seed, and the
peak-RSS probe each of its workload subprocesses reports.  Changing a
value changes the benchmark's inputs, so re-record the committed
``BENCH_*.json`` point (see ``repro.analysis.trajectory``) with it.
"""

from __future__ import annotations

TRACE_SCALE = dict(bytes_per_paper_gb=1024 * 1024,
                   accesses_per_paper_gb=175_000,
                   min_bytes=48 * 1024 * 1024,
                   min_accesses_per_page=60)      # silo -> ~10.2M accesses
MACRO_BATCH = 262_144
TRACE_EVENT_ACCESSES = 1_024
SEED = 7


def _vm_hwm_mb() -> float:
    """This process's peak resident set (``VmHWM``) in MB."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    return 0.0
