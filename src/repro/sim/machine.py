"""Machine and scale specifications for experiments.

The paper's testbed (§6.1): dual-socket Xeon Gold 5218R (20 cores used),
6x16 GB DDR4 + 6x128 GB Optane DCPMM per socket; tiering ratios 1:2,
1:8, 1:16 (fast:capacity), plus 2:1 for the Meta-style scenario (§6.2.8).
"In the 1:2 configuration, the fast tier size is set to 33% (1/3) of the
resident set size (RSS) ... in the 1:16 configuration it is 5.9% (1/17)"
-- i.e. fast = RSS * f/(f+c) for ratio f:c.

A machine is an **ordered list of tiers** (index 0 = fastest), each with
its own latency/bandwidth/capacity.  The paper's two-tier DRAM+NVM and
DRAM+CXL configurations are the ``N == 2`` special case, and the legacy
``MachineSpec(fast_bytes=..., capacity_bytes=..., capacity_kind=...)``
constructor form still builds exactly those machines.  Deeper stacks
come from :meth:`MachineSpec.from_tiers` or the named presets
(``dram-cxl-nvm``, ``dram-cxl-nvm-remote``).

We run at laptop scale, so every experiment states its *paper* sizes and
derives simulated sizes through one :class:`ScaleSpec`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.mem.pages import HUGE_PAGE_SIZE
from repro.mem.tiers import (
    CAPACITY_SPECS,
    MemoryTier,
    TieredMemory,
    TierSpec,
    cxl_spec,
    dram_spec,
    nvm_spec,
    remote_spec,
)

#: Fast:capacity ratios evaluated in the paper.
TIERING_RATIOS: Dict[str, Tuple[int, int]] = {
    "1:2": (1, 2),
    "1:8": (1, 8),
    "1:16": (1, 16),
    "2:1": (2, 1),
}

MIB = 1024 * 1024
GIB = 1024 * MIB


@dataclass(frozen=True)
class ScaleSpec:
    """Mapping from paper sizes (GB-scale) to simulated sizes (MB-scale).

    ``bytes_per_paper_gb`` is the simulated footprint representing one
    paper gigabyte.  The default (3 MiB per paper GB, floored at
    ``min_bytes``) turns the paper's 10-123 GB RSS values into
    128-500 MiB simulated address spaces -- large enough for thousands
    of huge pages (so histograms and skew statistics are meaningful)
    while keeping runs fast.
    """

    bytes_per_paper_gb: int = 3 * MIB
    accesses_per_paper_gb: int = 150_000
    min_bytes: int = 128 * MIB
    min_accesses_per_page: int = 150

    def bytes_for(self, paper_gb: float) -> int:
        """Simulated bytes for a paper-reported size, huge-page aligned.

        A footprint floor keeps the smallest benchmarks (10-12 GB RSS)
        from degenerating: without it their 1:8/1:16 fast tiers would
        hold only one or two huge pages and every placement decision
        would be all-or-nothing.
        """
        raw = max(int(paper_gb * self.bytes_per_paper_gb), self.min_bytes)
        return max(HUGE_PAGE_SIZE, (raw // HUGE_PAGE_SIZE) * HUGE_PAGE_SIZE)

    def accesses_for(self, paper_gb: float) -> int:
        """Trace length scaled with footprint so pages get re-visited."""
        pages = self.bytes_for(paper_gb) // (4 * 1024)
        return max(
            int(paper_gb * self.accesses_per_paper_gb),
            pages * self.min_accesses_per_page,
        )


#: Default scale used by tests and examples; experiments may pass larger.
DEFAULT_SCALE = ScaleSpec()


def _huge_floor(nbytes: int) -> int:
    return max(HUGE_PAGE_SIZE, (nbytes // HUGE_PAGE_SIZE) * HUGE_PAGE_SIZE)


def _huge_ceil(nbytes: int) -> int:
    return max(HUGE_PAGE_SIZE, -(-nbytes // HUGE_PAGE_SIZE) * HUGE_PAGE_SIZE)


@dataclass(frozen=True, init=False)
class MachineSpec:
    """An N-tier machine plus CPU topology for contention modelling.

    ``tier_specs`` is ordered fastest-first; index 0 is the tier
    promotions target.  The legacy two-tier keyword form
    (``fast_bytes``/``capacity_bytes``/``capacity_kind``) constructs the
    equivalent two-entry tier list, and the legacy attribute names
    remain available as derived properties.
    """

    tier_specs: Tuple[TierSpec, ...]
    cores: int = 20
    app_threads: int = 20

    def __init__(
        self,
        fast_bytes: Optional[int] = None,
        capacity_bytes: Optional[int] = None,
        capacity_kind: str = "nvm",
        cores: int = 20,
        app_threads: int = 20,
        *,
        tier_specs: Optional[Sequence[TierSpec]] = None,
    ):
        if tier_specs is not None:
            if fast_bytes is not None or capacity_bytes is not None:
                raise ValueError(
                    "pass either tier_specs or fast_bytes/capacity_bytes, "
                    "not both"
                )
            specs = tuple(tier_specs)
        else:
            if fast_bytes is None or capacity_bytes is None:
                raise ValueError(
                    "MachineSpec needs tier_specs or fast_bytes+capacity_bytes"
                )
            if capacity_kind not in CAPACITY_SPECS:
                raise ValueError(
                    f"unknown capacity kind {capacity_kind!r}; "
                    f"expected one of {sorted(CAPACITY_SPECS)}"
                )
            specs = (
                dram_spec(fast_bytes),
                CAPACITY_SPECS[capacity_kind](capacity_bytes),
            )
        if not specs:
            raise ValueError("a machine needs at least one tier")
        for spec in specs:
            if spec.capacity_bytes < HUGE_PAGE_SIZE:
                raise ValueError(
                    f"tier {spec.name}: must hold at least one huge page"
                )
        object.__setattr__(self, "tier_specs", specs)
        object.__setattr__(self, "cores", int(cores))
        object.__setattr__(self, "app_threads", int(app_threads))

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_tiers(
        cls,
        tier_specs: Sequence[TierSpec],
        cores: int = 20,
        app_threads: int = 20,
    ) -> "MachineSpec":
        """Build an N-tier machine from an ordered spec list (fastest first)."""
        return cls(tier_specs=tier_specs, cores=cores, app_threads=app_threads)

    @classmethod
    def from_ratio(
        cls,
        rss_bytes: int,
        ratio: str = "1:8",
        capacity_kind: str = "nvm",
        capacity_slack: float = 1.3,
        cores: int = 20,
        app_threads: int = 20,
    ) -> "MachineSpec":
        """Size a two-tier machine for a workload RSS at a paper ratio.

        The fast tier gets ``RSS * f/(f+c)``; the capacity tier is sized
        to hold the whole RSS (the all-capacity baseline must fit) with
        ``capacity_slack`` headroom for migration churn.
        """
        if ratio not in TIERING_RATIOS:
            raise ValueError(f"unknown ratio {ratio!r}; expected {sorted(TIERING_RATIOS)}")
        f, c = TIERING_RATIOS[ratio]
        fast = _huge_floor(int(rss_bytes * f / (f + c)))
        capacity = _huge_ceil(int(rss_bytes * capacity_slack))
        return cls(
            fast_bytes=fast,
            capacity_bytes=capacity,
            capacity_kind=capacity_kind,
            cores=cores,
            app_threads=app_threads,
        )

    @classmethod
    def from_preset(
        cls,
        preset: str,
        rss_bytes: int,
        ratio: str = "1:8",
        capacity_slack: float = 1.3,
        cores: int = 20,
        app_threads: int = 20,
    ) -> "MachineSpec":
        """Build a named multi-tier machine sized for a workload RSS."""
        try:
            builder = MACHINE_PRESETS[preset]
        except KeyError:
            raise ValueError(
                f"unknown machine preset {preset!r}; "
                f"expected one of {sorted(MACHINE_PRESETS)}"
            ) from None
        return builder(rss_bytes, ratio, capacity_slack, cores, app_threads)

    # -- legacy two-tier views ----------------------------------------------

    @property
    def num_tiers(self) -> int:
        return len(self.tier_specs)

    @property
    def fast_bytes(self) -> int:
        """Capacity of the fastest tier (legacy name)."""
        return self.tier_specs[0].capacity_bytes

    @property
    def capacity_bytes(self) -> int:
        """Combined capacity of every tier below the fastest (legacy name)."""
        return sum(s.capacity_bytes for s in self.tier_specs[1:])

    @property
    def capacity_kind(self) -> str:
        """Technology of the slowest tier (legacy name)."""
        return self.tier_specs[-1].name.lower()

    def _legacy_form(self) -> Optional[Tuple[int, int, str]]:
        """Detect the exact two-tier DRAM + known-capacity-kind shape.

        Returns ``(fast_bytes, capacity_bytes, capacity_kind)`` when this
        machine is expressible in the historical constructor form --
        i.e. the serialized dict (and so every pinned result digest)
        must keep the historical field layout.
        """
        if len(self.tier_specs) != 2:
            return None
        fast, cap = self.tier_specs
        if fast != dram_spec(fast.capacity_bytes):
            return None
        for kind, ctor in CAPACITY_SPECS.items():
            if cap == ctor(cap.capacity_bytes):
                return fast.capacity_bytes, cap.capacity_bytes, kind
        return None

    def to_dict(self) -> dict:
        """Serialized form; two-tier paper machines keep the legacy layout."""
        legacy = self._legacy_form()
        if legacy is not None:
            fast_bytes, capacity_bytes, capacity_kind = legacy
            return {
                "fast_bytes": fast_bytes,
                "capacity_bytes": capacity_bytes,
                "capacity_kind": capacity_kind,
                "cores": self.cores,
                "app_threads": self.app_threads,
            }
        return {
            "tiers": [
                {
                    "name": s.name,
                    "capacity_bytes": s.capacity_bytes,
                    "load_latency_ns": s.load_latency_ns,
                    "store_latency_ns": s.store_latency_ns,
                    "bandwidth_gbps": s.bandwidth_gbps,
                }
                for s in self.tier_specs
            ],
            "cores": self.cores,
            "app_threads": self.app_threads,
        }

    # -- materialisation ----------------------------------------------------

    def build_tiers(self) -> TieredMemory:
        return TieredMemory(
            [MemoryTier(i, spec) for i, spec in enumerate(self.tier_specs)]
        )

    # -- machine variants ---------------------------------------------------

    def collapse_to_slowest(self) -> "MachineSpec":
        """Variant where the slowest tier holds everything (all-NVM/CXL
        baseline); faster tiers shrink to one huge page."""
        total = sum(s.capacity_bytes for s in self.tier_specs)
        specs = []
        for i, spec in enumerate(self.tier_specs):
            size = total if i == len(self.tier_specs) - 1 else HUGE_PAGE_SIZE
            specs.append(
                TierSpec(spec.name, size, spec.load_latency_ns,
                         spec.store_latency_ns, spec.bandwidth_gbps)
            )
        return MachineSpec(tier_specs=specs, cores=self.cores,
                           app_threads=self.app_threads)

    def collapse_to_fastest(self) -> "MachineSpec":
        """Variant where the fastest tier holds everything (all-DRAM
        reference); slower tiers shrink to one huge page."""
        total = sum(s.capacity_bytes for s in self.tier_specs)
        specs = []
        for i, spec in enumerate(self.tier_specs):
            size = total if i == 0 else HUGE_PAGE_SIZE
            specs.append(
                TierSpec(spec.name, size, spec.load_latency_ns,
                         spec.store_latency_ns, spec.bandwidth_gbps)
            )
        return MachineSpec(tier_specs=specs, cores=self.cores,
                           app_threads=self.app_threads)


# -- multi-tier presets ---------------------------------------------------


def _preset_dram_cxl_nvm(rss_bytes, ratio, capacity_slack, cores, app_threads):
    """3-tier DRAM/CXL/NVM: DRAM sized by the paper ratio, CXL twice the
    DRAM tier, NVM terminal tier holding the whole RSS with slack."""
    if ratio not in TIERING_RATIOS:
        raise ValueError(f"unknown ratio {ratio!r}; expected {sorted(TIERING_RATIOS)}")
    f, c = TIERING_RATIOS[ratio]
    fast = _huge_floor(int(rss_bytes * f / (f + c)))
    cxl = _huge_floor(2 * fast)
    nvm = _huge_ceil(int(rss_bytes * capacity_slack))
    return MachineSpec(
        tier_specs=(dram_spec(fast), cxl_spec(cxl), nvm_spec(nvm)),
        cores=cores, app_threads=app_threads,
    )


def _preset_dram_cxl_nvm_remote(rss_bytes, ratio, capacity_slack, cores,
                                app_threads):
    """4-tier DRAM/CXL/NVM/remote: as the 3-tier preset plus NVM at 4x
    DRAM and a remote terminal tier holding the whole RSS with slack."""
    if ratio not in TIERING_RATIOS:
        raise ValueError(f"unknown ratio {ratio!r}; expected {sorted(TIERING_RATIOS)}")
    f, c = TIERING_RATIOS[ratio]
    fast = _huge_floor(int(rss_bytes * f / (f + c)))
    cxl = _huge_floor(2 * fast)
    nvm = _huge_floor(4 * fast)
    remote = _huge_ceil(int(rss_bytes * capacity_slack))
    return MachineSpec(
        tier_specs=(dram_spec(fast), cxl_spec(cxl), nvm_spec(nvm),
                    remote_spec(remote)),
        cores=cores, app_threads=app_threads,
    )


#: Named multi-tier machine builders keyed by preset name.
MACHINE_PRESETS = {
    "dram-cxl-nvm": _preset_dram_cxl_nvm,
    "dram-cxl-nvm-remote": _preset_dram_cxl_nvm_remote,
}
