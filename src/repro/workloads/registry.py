"""Workload registry: every workload by name, in paper order."""

from __future__ import annotations

from typing import Dict, List, Type

from repro.sim.machine import ScaleSpec
from repro.workloads.base import Workload
from repro.workloads.btree import BtreeWorkload
from repro.workloads.graph500 import Graph500Workload
from repro.workloads.liblinear import LiblinearWorkload
from repro.workloads.pagerank import PageRankWorkload
from repro.workloads.phaseflip import PhaseFlipWorkload
from repro.workloads.silo import SiloWorkload
from repro.workloads.spec import BwavesWorkload, RomsWorkload
from repro.workloads.xsbench import XSBenchWorkload

WORKLOAD_REGISTRY: Dict[str, Type[Workload]] = {
    cls.name: cls
    for cls in (
        Graph500Workload,
        PageRankWorkload,
        XSBenchWorkload,
        LiblinearWorkload,
        SiloWorkload,
        BtreeWorkload,
        BwavesWorkload,
        RomsWorkload,
        PhaseFlipWorkload,
    )
}

#: Paper order used by every figure.  Synthetic extras (``phaseflip``)
#: are registered but excluded: they are head-to-head scenarios, not
#: Table 2 benchmarks.
PAPER_ORDER: List[str] = [
    "graph500",
    "pagerank",
    "xsbench",
    "liblinear",
    "silo",
    "btree",
    "603.bwaves",
    "654.roms",
]


def workload_names() -> List[str]:
    """Every runnable workload: paper order first, then synthetic extras."""
    extras = sorted(set(WORKLOAD_REGISTRY) - set(PAPER_ORDER))
    return list(PAPER_ORDER) + extras


def make_workload(name: str, scale: ScaleSpec, **kwargs) -> Workload:
    """Instantiate a registered workload at the given scale."""
    try:
        cls = WORKLOAD_REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown workload {name!r}; available: {sorted(WORKLOAD_REGISTRY)}"
        ) from None
    return cls.from_scale(scale, **kwargs)
