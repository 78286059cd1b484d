"""repro: a faithful simulation-scale reproduction of MEMTIS (SOSP 2023).

MEMTIS is a tiered-memory system that (1) classifies pages as hot, warm
or cold from the *full access-frequency distribution* (a 16-bin
exponential histogram) instead of static thresholds, and (2) decides
page sizes dynamically, splitting huge pages whose subpage accesses are
highly skewed so only the hot subpages occupy fast memory.

Quick start::

    from repro import RunSpec, normalized_performance

    spec = RunSpec("silo", "memtis", ratio="1:8")
    result = spec.run()
    baseline = spec.baseline_spec().run()
    print(normalized_performance(result, baseline))  # vs all-NVM
    print(result.fast_hit_ratio)

Public surface:

* :class:`repro.sim.runner.RunSpec` -- frozen, hashable description of
  one run: ``spec.run()`` executes it with persistent result caching,
  :func:`repro.sim.sweep.run_sweep` fans many specs out over worker
  processes, and :func:`normalized_performance` scores a result against
  ``spec.baseline_spec()``;
* :class:`repro.sim.engine.Simulation` -- the engine, for custom setups;
* :class:`repro.core.MemtisPolicy` and :mod:`repro.policies` -- MEMTIS
  and the six baselines;
* :mod:`repro.workloads` -- the eight synthetic benchmarks;
* :mod:`repro.experiments` -- regenerators for every paper table/figure.
"""

from repro.core import MemtisConfig, MemtisPolicy
from repro.policies import make_policy, policy_names
from repro.sim import (
    MachineSpec,
    ResultCache,
    RunSpec,
    ScaleSpec,
    SimResult,
    Simulation,
    normalized_performance,
    run_sweep,
)
from repro.workloads import make_workload, workload_names

__version__ = "1.0.0"

__all__ = [
    "MemtisConfig",
    "MemtisPolicy",
    "make_policy",
    "policy_names",
    "MachineSpec",
    "ResultCache",
    "RunSpec",
    "ScaleSpec",
    "SimResult",
    "Simulation",
    "normalized_performance",
    "run_sweep",
    "make_workload",
    "workload_names",
    "__version__",
]
