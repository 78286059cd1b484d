"""Workload registry: every workload by name, in paper order."""

from __future__ import annotations

from typing import Dict, List, Type

from repro.sim.machine import ScaleSpec
from repro.workloads.base import Workload
from repro.workloads.btree import BtreeWorkload
from repro.workloads.graph500 import Graph500Workload
from repro.workloads.liblinear import LiblinearWorkload
from repro.workloads.mix import MixWorkload
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
    """Instantiate a workload by name at the given scale.

    Beyond a registered name, ``a+b`` co-locates its members in one
    :class:`MixWorkload`, and ``name@GB`` sizes a workload at GB paper
    gigabytes (a positive integer) instead of its own paper RSS.
    """
    if "+" in name:
        return MixWorkload([make_workload(member, scale, **kwargs)
                            for member in name.split("+")])
    base, at, size = name.partition("@")
    try:
        cls = WORKLOAD_REGISTRY[base]
    except KeyError:
        raise KeyError(
            f"unknown workload {base!r}; available: {sorted(WORKLOAD_REGISTRY)}"
        ) from None
    if not at:
        return cls.from_scale(scale, **kwargs)
    paper_gb = int(size) if size.isdigit() else 0
    if paper_gb <= 0:
        raise ValueError(
            f"malformed workload size in {name!r}: expected name@GB with "
            "GB a positive integer"
        )
    return cls(total_bytes=scale.bytes_for(paper_gb),
               total_accesses=scale.accesses_for(paper_gb), **kwargs)
