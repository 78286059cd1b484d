"""Simulator engine: machine specs, cost model, metrics, and the driver.

The engine is trace-driven and batch-vectorised: workloads emit batches
of page-granularity accesses, the engine charges memory/translation/fault
costs against a virtual clock, and tiering policies observe exactly what
their real mechanism would observe (PEBS samples, hint faults, reference
bits) -- never the full trace.

Above the engine sits the sweep-execution layer: :class:`RunSpec` is the
hashable description of one run, :mod:`repro.sim.sweep` fans specs out
over worker processes, and :mod:`repro.sim.cache` memoises completed
results on disk.
"""

from repro.sim.machine import MachineSpec, ScaleSpec, TIERING_RATIOS
from repro.sim.cost import CostModel
from repro.sim.metrics import MetricsCollector
from repro.sim.engine import Simulation, SimResult, json_safe
from repro.sim.runner import RunSpec, normalized_performance
from repro.sim.cache import ResultCache
from repro.sim.sweep import CellOutcome, SweepError, SweepEvent, run_sweep

__all__ = [
    "MachineSpec",
    "ScaleSpec",
    "TIERING_RATIOS",
    "CostModel",
    "MetricsCollector",
    "Simulation",
    "SimResult",
    "json_safe",
    "RunSpec",
    "ResultCache",
    "CellOutcome",
    "SweepError",
    "SweepEvent",
    "run_sweep",
    "normalized_performance",
]
