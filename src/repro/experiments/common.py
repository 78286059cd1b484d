"""Shared experiment scaffolding: results, sweeps, grids."""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Optional, Sequence, Tuple

from repro.sim import cache as result_cache
from repro.sim.engine import SimResult, json_safe
from repro.sim.machine import DEFAULT_SCALE, ScaleSpec
from repro.sim.runner import RunSpec, normalized_performance
from repro.sim.sweep import run_sweep, raise_failures
from repro.workloads.registry import PAPER_ORDER

#: Quick scale for tests / smoke runs of the experiment modules.
SMOKE_SCALE = ScaleSpec(
    bytes_per_paper_gb=1 * 1024 * 1024,
    accesses_per_paper_gb=30_000,
    min_bytes=48 * 1024 * 1024,
    min_accesses_per_page=60,
)


@dataclass
class ExperimentResult:
    """Output of one experiment regeneration."""

    experiment_id: str
    title: str
    text: str
    data: Dict[str, object] = field(default_factory=dict)

    def print(self) -> None:
        print(f"\n### {self.experiment_id}: {self.title}\n")
        print(self.text)

    def save(self, path: str) -> None:
        """Write the rendered text and the raw data as JSON.

        ``data`` may contain numpy scalars/arrays and whole
        :class:`~repro.sim.engine.SimResult` objects; everything is
        converted through :func:`repro.sim.engine.json_safe`.
        """
        import json

        with open(path, "w") as fh:
            json.dump(
                {
                    "experiment_id": self.experiment_id,
                    "title": self.title,
                    "text": self.text,
                    "data": json_safe(self.data),
                },
                fh, indent=2,
            )


def run_specs(specs: Iterable[RunSpec]) -> Dict[RunSpec, SimResult]:
    """Run every spec in one :func:`run_sweep`; return ``{spec: result}``.

    The sweep deduplicates, serves cache hits and fans the rest out over
    the ``--jobs``/``REPRO_JOBS`` workers; any failed cell raises
    :class:`~repro.sim.sweep.SweepError`.
    """
    outcomes = run_sweep(specs)
    raise_failures(outcomes)
    return {spec: outcome.result for spec, outcome in outcomes.items()}


def run_grid(
    workloads: Sequence[str],
    policies: Sequence[str],
    ratios: Sequence[str],
    scale: Optional[ScaleSpec] = None,
    capacity_kind: str = "nvm",
    seed: int = 42,
    policy_kwargs: Optional[Dict[str, dict]] = None,
    progress: Optional[Callable[[str], None]] = None,
    jobs: Optional[int] = None,
    cache=result_cache.DEFAULT,
    strict: bool = True,
) -> Dict[Tuple[str, str, str], Dict[str, object]]:
    """Run every (workload, policy, ratio) combo, normalised per cell.

    Cells (plus the one shared all-capacity baseline per
    (workload, ratio)) are executed through :func:`repro.sim.sweep.run_sweep`:
    deduplicated, served from the persistent result cache when possible,
    and fanned out over ``jobs`` worker processes (default: the
    ``--jobs``/``REPRO_JOBS`` setting, else serial).  ``progress``
    receives one human-readable message per completed cell.

    Returns ``{(workload, policy, ratio): {"normalized": float,
    "result": SimResult, "baseline": SimResult}}``.  With
    ``strict=False`` a failed cell yields ``{"error": str}`` instead of
    aborting the grid.
    """
    scale = scale or DEFAULT_SCALE
    cells: Dict[Tuple[str, str, str], RunSpec] = {}
    for workload in workloads:
        for ratio in ratios:
            for policy in policies:
                cells[(workload, policy, ratio)] = RunSpec(
                    workload, policy, ratio=ratio,
                    capacity_kind=capacity_kind, scale=scale, seed=seed,
                    policy_kwargs=(policy_kwargs or {}).get(policy, {}),
                )
    # Baselines first so serial execution warms them before the cells
    # that normalise against them; dedup in run_sweep makes each unique
    # baseline run exactly once however many policies share it.
    baselines = [spec.baseline_spec() for spec in cells.values()]
    outcomes = run_sweep(
        list(dict.fromkeys(baselines)) + list(cells.values()),
        jobs=jobs, cache=cache,
        progress=(lambda event: progress(event.message)) if progress else None,
    )
    if strict:
        raise_failures(outcomes)

    out: Dict[Tuple[str, str, str], Dict[str, object]] = {}
    for key, spec in cells.items():
        cell = outcomes[spec]
        baseline = outcomes[spec.baseline_spec()]
        if not (cell.ok and baseline.ok):
            out[key] = {"error": cell.error or baseline.error}
            continue
        out[key] = {
            "normalized": normalized_performance(cell.result, baseline.result),
            "result": cell.result,
            "baseline": baseline.result,
        }
    return out


def geomean(values: Sequence[float]) -> float:
    import numpy as np

    arr = np.asarray(values, dtype=float)
    if len(arr) == 0:
        return 0.0
    return float(np.exp(np.mean(np.log(arr))))


#: experiment id -> module path (each defines run()/main()).
EXPERIMENT_REGISTRY: Dict[str, str] = {
    "table1": "repro.experiments.table1",
    "fig1": "repro.experiments.fig1_damon",
    "fig2": "repro.experiments.fig2_hemem_hotset",
    "fig3": "repro.experiments.fig3_utilization",
    "table2": "repro.experiments.table2",
    "table3": "repro.experiments.table3",
    "fig5": "repro.experiments.fig5_main",
    "fig6": "repro.experiments.fig6_scalability",
    "fig7": "repro.experiments.fig7_2to1",
    "fig8": "repro.experiments.fig8_hemem_detail",
    "fig9": "repro.experiments.fig9_hotset_timeline",
    "fig10": "repro.experiments.fig10_warm_split_ablation",
    "fig11": "repro.experiments.fig11_split_timeline",
    "fig12": "repro.experiments.fig12_hit_ratios",
    "fig13": "repro.experiments.fig13_sensitivity",
    "fig14": "repro.experiments.fig14_cxl",
    "overheads": "repro.experiments.overheads",
    "ablations": "repro.experiments.ablations",
    "tmts": "repro.experiments.tmts_comparison",
    "colocation": "repro.experiments.colocation",
    "headtohead": "repro.experiments.headtohead",
}


def load_experiment(experiment_id: str):
    """Import the module implementing ``experiment_id``."""
    try:
        path = EXPERIMENT_REGISTRY[experiment_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; "
            f"available: {sorted(EXPERIMENT_REGISTRY)}"
        ) from None
    return importlib.import_module(path)


ALL_WORKLOADS = list(PAPER_ORDER)
