"""The supported public API surface, frozen in one place.

Everything a driver script, notebook or downstream experiment should
need is re-exported here; anything *not* in ``__all__`` is internal and
may change without notice.

* machines are built from an ordered list of :class:`TierSpec`s
  (``MachineSpec.from_tiers``, ``MachineSpec.from_preset``) or from the
  paper's two-tier ratio shorthand (``MachineSpec.from_ratio``), and
  collapse to one tier with ``collapse_to_slowest()`` /
  ``collapse_to_fastest()``;
* tiers are plain integer indices (``FASTEST_TIER`` = 0) with
  ``promote_target(i)`` / ``demote_target(i)`` neighbour addressing;
* a run is a :class:`RunSpec`: ``spec.run()`` for one, ``run_sweep``
  for many (cached, parallel), and ``normalized_performance`` against
  ``spec.baseline_spec()`` for the paper's normalisation.
"""

from __future__ import annotations

from repro.mem.tiers import (
    FASTEST_TIER,
    TIER_UNMAPPED,
    UNMAPPED_LABEL,
    TieredMemory,
    TierSpec,
    cxl_spec,
    dram_spec,
    nvm_spec,
    remote_spec,
    tier_label,
)
from repro.policies.registry import make_policy, policy_names
from repro.sim.engine import SimResult, Simulation
from repro.sim.machine import MACHINE_PRESETS, MachineSpec, ScaleSpec
from repro.sim.runner import RunSpec, normalized_performance
from repro.service import (
    EnqueueReport,
    Job,
    JobQueue,
    Worker,
    build_status,
    start_server,
    worker_main,
)
from repro.sim.sweep import CellOutcome, execute_cell, run_sweep
from repro.workloads.registry import make_workload, workload_names

__all__ = [
    # tier model
    "FASTEST_TIER",
    "TIER_UNMAPPED",
    "UNMAPPED_LABEL",
    "TierSpec",
    "TieredMemory",
    "tier_label",
    "dram_spec",
    "cxl_spec",
    "nvm_spec",
    "remote_spec",
    # machine model
    "MachineSpec",
    "MACHINE_PRESETS",
    "ScaleSpec",
    # simulation
    "Simulation",
    "SimResult",
    "RunSpec",
    "run_sweep",
    "execute_cell",
    "CellOutcome",
    # sweep service
    "JobQueue",
    "Job",
    "EnqueueReport",
    "Worker",
    "worker_main",
    "build_status",
    "start_server",
    "normalized_performance",
    # registries
    "make_policy",
    "policy_names",
    "make_workload",
    "workload_names",
]
