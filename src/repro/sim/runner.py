"""Run specifications: the ``RunSpec`` API plus paper-style normalisation.

:class:`RunSpec` is the unit of execution for everything above the raw
engine: a frozen, hashable description of one simulation (workload,
policy, ratio, capacity kind, scale, seed, policy kwargs, access budget,
machine variant).  It is what the parallel sweep executor
(:mod:`repro.sim.sweep`) pickles to worker processes and what the
persistent result cache (:mod:`repro.sim.cache`) hashes for its
content-addressed keys.  ``RunSpec.build()`` constructs the
:class:`~repro.sim.engine.Simulation`, ``RunSpec.run()`` executes it
(consulting the cache), and ``RunSpec.baseline_spec()`` derives the
matching all-capacity reference run.

The paper reports "relative performance normalized to the performance of
the all-NVM case with THP enabled" (§6.1): run ``spec`` and
``spec.baseline_spec()`` (together, through
:func:`repro.sim.sweep.run_sweep`, for many specs) and
:func:`normalized_performance` returns ``baseline_runtime / runtime``
(higher is better, 1.0 = all-capacity performance).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.policies.registry import make_policy
from repro import snapshot as snapshot_store
from repro.sim import cache as result_cache
from repro.sim.engine import Simulation, SimResult, stream_rng
from repro.sim.machine import (
    DEFAULT_SCALE,
    MACHINE_PRESETS,
    TIERING_RATIOS,
    MachineSpec,
    ScaleSpec,
)
from repro.mem.tiers import CAPACITY_SPECS
from repro.workloads.registry import make_workload
from repro.workloads.trace import share_stream

#: Bump when engine/policy changes alter simulation results: old cache
#: entries become unreachable without deleting the cache directory.
#: v3: guaranteed tail metrics snapshot + observability summary field.
#: v4: kmigrated bookkeeping fixes (split_hpns leak, collapse admission,
#: promotion skip), asymmetric period controller, free-path TLB
#: shootdowns.
#: v5: exact integer histogram binning (``bin_of_array``), stable
#: split-candidate tie-breaking, capacity-window bandwidth-model rho.
#: v6: one per-epoch series (``metrics.series``) and one stored copy of
#: every run count; cached results and checkpoints of the older layout
#: are unreachable.
SPEC_SCHEMA_VERSION = 6

def cache_key_of(spec_dict: Mapping[str, Any]) -> str:
    """The :meth:`RunSpec.cache_key` of the spec whose
    :meth:`RunSpec.to_dict` is ``spec_dict``, for a caller that already
    holds that dict."""
    payload_dict = {"schema": SPEC_SCHEMA_VERSION, **spec_dict}
    # Sanitizer checks observe without changing results: a checked
    # run produces (and may serve) the same cache entry as the
    # unchecked spec.  Checkpointing and resuming likewise: a
    # resumed run is bit-identical to an uninterrupted one, so both
    # variants share one cache slot (and one checkpoint bucket).
    payload_dict.pop("check")
    payload_dict.pop("snapshot_every")
    payload_dict.pop("resume")
    payload = json.dumps(
        payload_dict, sort_keys=True, separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


#: Machine variants a spec can request: the machine as built, or collapsed
#: to its slowest (:meth:`MachineSpec.collapse_to_slowest`) or fastest
#: (:meth:`MachineSpec.collapse_to_fastest`) tier.
MACHINE_VARIANTS = ("tiered", "all-capacity", "all-fast")


def _freeze(value: Any) -> Any:
    """Recursively convert ``value`` into a hashable representation."""
    if isinstance(value, Mapping):
        return _FrozenDict(
            tuple(sorted((str(k), _freeze(v)) for k, v in value.items()))
        )
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    if isinstance(value, set):
        return tuple(sorted(_freeze(v) for v in value))
    return value


def _thaw(value: Any) -> Any:
    """Inverse of :func:`_freeze` (tuples stay tuples; dicts come back)."""
    if isinstance(value, _FrozenDict):
        return value.thaw()
    if isinstance(value, tuple):
        return tuple(_thaw(v) for v in value)
    return value


@dataclass(frozen=True)
class _FrozenDict:
    """Hashable stand-in for a kwargs mapping inside a frozen spec."""

    items: Tuple[Tuple[str, Any], ...] = ()

    def thaw(self) -> Dict[str, Any]:
        return {k: _thaw(v) for k, v in self.items}


@dataclass(frozen=True)
class RunSpec:
    """Complete, hashable description of one simulation run.

    Construct with plain kwargs -- ``policy_kwargs`` may be an ordinary
    dict; it is frozen internally so specs stay hashable::

        spec = RunSpec("silo", "memtis", ratio="1:8", seed=7,
                       policy_kwargs={"enable_split": False})
        result = spec.run()                       # cached, deterministic
        baseline = spec.baseline_spec().run()     # the paper's 1.0 line
    """

    #: A registered workload name, ``a+b`` (its members co-located in
    #: one MixWorkload) or ``name@GB`` (sized at GB paper gigabytes);
    #: see :func:`repro.workloads.registry.make_workload`.
    workload: str
    policy: str
    ratio: str = "1:8"
    capacity_kind: str = "nvm"
    scale: ScaleSpec = DEFAULT_SCALE
    seed: int = 42
    policy_kwargs: _FrozenDict = _FrozenDict()
    max_accesses: Optional[int] = None
    machine_variant: str = "tiered"
    force_base_pages: bool = False
    #: Invariant-sanitizer level for this run (``repro.check``): one of
    #: ``None``/"off", "end", "epoch", "strict".  Not part of the cache
    #: identity -- checks observe, they never change results -- but a
    #: checked spec always executes (a cache hit would check nothing).
    check: Optional[str] = None
    #: Checkpoint the full simulator state every N epochs (0 = never).
    #: Not part of the cache identity: checkpointing observes state at
    #: epoch boundaries without changing the trajectory (enforced by
    #: tests/test_snapshot.py).
    snapshot_every: int = 0
    #: Resume from the latest stored checkpoint for this spec, if one
    #: exists (falls back to a fresh run otherwise).  Also outside the
    #: cache identity: a resumed run is bit-identical to a fresh one.
    resume: bool = False
    #: Named multi-tier machine preset (``dram-cxl-nvm``,
    #: ``dram-cxl-nvm-remote``); None keeps the two-tier machine built
    #: from ``ratio``/``capacity_kind``.  Serialized (and hashed into
    #: the cache key) only when set, so every historical spec keeps its
    #: ``to_dict()`` layout and ``cache_key()`` unchanged.
    machine_preset: Optional[str] = None
    #: Macro-batch coalescing target in accesses (``repro.sim.macro``):
    #: 0 (default) runs one workload event per engine batch; N > 0 fuses
    #: consecutive access events into ~N-access macro-batches.  This
    #: changes the observation cadence -- policies see fewer, larger
    #: batches -- so unlike ``check``/``snapshot_every`` it IS part of
    #: the cache identity.  Serialized (and hashed) only when nonzero,
    #: so historical specs keep their exact ``to_dict()`` layout and
    #: ``cache_key()``.
    macro_batch: int = 0
    #: Size in bytes of the fastest tier, replacing the one ``ratio``
    #: gives; the capacity tier keeps the ratio machine's size.  For
    #: machines the ratio table cannot express (a fixed fast tier under
    #: a growing footprint, a fast tier grown by a measured
    #: over-allocation).  Serialized (and hashed) only when set, so
    #: historical specs keep their exact ``to_dict()`` and
    #: ``cache_key()``.
    fast_bytes: Optional[int] = None

    def __post_init__(self):
        if self.check not in (None, "off", "end", "epoch", "strict"):
            raise ValueError(
                f"unknown check level {self.check!r}; expected one of "
                "off/end/epoch/strict"
            )
        if self.snapshot_every < 0:
            raise ValueError(
                f"snapshot_every must be >= 0, got {self.snapshot_every}"
            )
        if self.macro_batch < 0:
            raise ValueError(
                f"macro_batch must be >= 0, got {self.macro_batch}"
            )
        if self.scale is None:
            object.__setattr__(self, "scale", DEFAULT_SCALE)
        if not isinstance(self.policy_kwargs, _FrozenDict):
            object.__setattr__(
                self, "policy_kwargs", _freeze(dict(self.policy_kwargs or {}))
            )
        if self.ratio not in TIERING_RATIOS:
            raise ValueError(
                f"unknown ratio {self.ratio!r}; expected {sorted(TIERING_RATIOS)}"
            )
        if self.capacity_kind not in CAPACITY_SPECS:
            raise ValueError(
                f"unknown capacity kind {self.capacity_kind!r}; "
                f"expected one of {sorted(CAPACITY_SPECS)}"
            )
        if self.machine_variant not in MACHINE_VARIANTS:
            raise ValueError(
                f"unknown machine variant {self.machine_variant!r}; "
                f"expected one of {MACHINE_VARIANTS}"
            )
        if self.machine_preset is not None and \
                self.machine_preset not in MACHINE_PRESETS:
            raise ValueError(
                f"unknown machine preset {self.machine_preset!r}; "
                f"expected one of {sorted(MACHINE_PRESETS)}"
            )
        if self.fast_bytes is not None:
            if self.fast_bytes <= 0:
                raise ValueError(
                    f"fast_bytes must be > 0, got {self.fast_bytes}"
                )
            if self.machine_preset is not None:
                raise ValueError(
                    "fast_bytes sizes the two-tier ratio machine; it "
                    "cannot be combined with machine_preset"
                )

    # -- derived specs -----------------------------------------------------

    def replace(self, **changes) -> "RunSpec":
        """A copy with ``changes`` applied (dict ``policy_kwargs`` ok)."""
        return dataclasses.replace(self, **changes)

    def baseline_spec(self) -> "RunSpec":
        """The all-capacity-with-THP reference run for this spec.

        Same workload, scale, seed, ratio, capacity kind and fast-tier
        size (the collapse sums every tier); the machine collapses to
        the all-capacity variant under the static no-tiering policy --
        the paper's 1.0 normalisation line.
        """
        return self.replace(
            policy="all-capacity",
            policy_kwargs={},
            machine_variant="all-capacity",
            force_base_pages=False,
        )

    @property
    def policy_kwargs_dict(self) -> Dict[str, Any]:
        return self.policy_kwargs.thaw()

    @property
    def check_requested(self) -> bool:
        """True when this spec asks for sanitizer coverage (must execute)."""
        return self.check in ("end", "epoch", "strict")

    # -- execution ---------------------------------------------------------

    def build(self, obs=None, faults=None,
              streams: Optional[str] = None) -> Simulation:
        """Construct the :class:`Simulation` this spec describes.

        ``obs`` optionally supplies a pre-configured
        :class:`repro.obs.Observability` (e.g. with tracing enabled);
        ``faults`` an optional :class:`repro.check.FaultInjector`.
        Neither is part of the spec identity -- tracing and checking
        never change simulation results (fault injection does, which is
        why injected runs are never cached: they only flow through
        ``build()``, not ``run()``).  ``streams`` is a directory of event
        streams shared between the cells of one sweep: the run replays
        ``streams/<stream_key()>``, recorded and published there first
        if no cell has yet (:func:`repro.workloads.trace.share_stream`).
        A replay is bit-identical to the live run.
        """
        workload = make_workload(self.workload, self.scale)
        if self.machine_preset is not None:
            machine = MachineSpec.from_preset(
                self.machine_preset, workload.total_bytes, ratio=self.ratio,
            )
        else:
            machine = MachineSpec.from_ratio(
                workload.total_bytes, ratio=self.ratio,
                capacity_kind=self.capacity_kind,
            )
            if self.fast_bytes is not None:
                machine = MachineSpec(
                    fast_bytes=self.fast_bytes,
                    capacity_bytes=machine.capacity_bytes,
                    capacity_kind=self.capacity_kind,
                )
        if self.machine_variant == "all-capacity":
            machine = machine.collapse_to_slowest()
        elif self.machine_variant == "all-fast":
            machine = machine.collapse_to_fastest()
        if streams is not None:
            workload = share_stream(
                workload, os.path.join(streams, self.stream_key()),
                stream_rng(self.seed))
        policy = make_policy(self.policy, **self.policy_kwargs_dict)
        return Simulation(
            workload, policy, machine, seed=self.seed,
            force_base_pages=self.force_base_pages, obs=obs,
            check=self.check, faults=faults,
            macro_batch=self.macro_batch,
        )

    def execute(
        self, obs=None, faults=None, snapshots=snapshot_store.DEFAULT,
        epoch_hook=None, streams: Optional[str] = None,
    ) -> SimResult:
        """Build and run this spec, honouring checkpoint/resume fields.

        The uncached execution path: with ``snapshot_every > 0`` the
        simulation checkpoints its complete state to the snapshot store
        at every N-th epoch boundary; with ``resume=True`` the latest
        stored checkpoint (if any) is restored before running, so only
        the remaining epochs are computed.  Resuming is bit-identical to
        an uninterrupted run, which is why neither field is part of
        :meth:`cache_key`.  ``snapshots`` follows
        :func:`repro.snapshot.resolve_store`.  ``epoch_hook`` is an
        optional observer ``hook(sim)`` fired after every epoch close
        (the sweep worker's progress report).  ``streams`` goes to
        :meth:`build`.
        """
        store = None
        if self.snapshot_every > 0 or self.resume:
            store = snapshot_store.resolve_store(snapshots)
        sim = self.build(obs=obs, faults=faults, streams=streams)
        if epoch_hook is not None:
            sim.epoch_hook = epoch_hook
        if store is not None and self.snapshot_every > 0:
            sim.snapshot_every = self.snapshot_every
            sim.snapshot_sink = (
                lambda epoch, state: store.save(self, epoch, state)
            )
        if store is not None and self.resume:
            record = store.load(self)
            if record is not None:
                sim.load_state(record.state)
        return sim.run(max_accesses=self.max_accesses)

    def run(
        self, cache=result_cache.DEFAULT, snapshots=snapshot_store.DEFAULT,
    ) -> SimResult:
        """Execute (or fetch from cache) and return the :class:`SimResult`.

        ``cache`` follows :func:`repro.sim.cache.resolve_cache`:
        ``"default"`` uses the process-wide cache, ``None`` disables
        caching, a :class:`~repro.sim.cache.ResultCache` is used as-is.
        A hit comes from :func:`repro.sim.cache.lookup`.
        """
        cache = result_cache.resolve_cache(cache)
        hit = result_cache.lookup(cache, self)
        if hit is not None:
            return hit
        result = self.execute(snapshots=snapshots)
        if cache is not None:
            cache.put(self, result)
        return result

    # -- identity / serialisation -----------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe dict capturing every result-relevant field.

        ``machine_preset``, ``macro_batch`` and ``fast_bytes`` are
        emitted only when set: historical specs keep their exact
        serialized layout (and cache keys).
        """
        d = {
            "workload": self.workload,
            "policy": self.policy,
            "ratio": self.ratio,
            "capacity_kind": self.capacity_kind,
            # Its fields are ints: ``dataclasses.asdict`` would deep-copy
            # each one.
            "scale": dict(vars(self.scale)),
            "seed": self.seed,
            "policy_kwargs": self.policy_kwargs_dict,
            "max_accesses": self.max_accesses,
            "machine_variant": self.machine_variant,
            "force_base_pages": self.force_base_pages,
            "check": self.check,
            "snapshot_every": self.snapshot_every,
            "resume": self.resume,
        }
        if self.machine_preset is not None:
            d["machine_preset"] = self.machine_preset
        if self.macro_batch:
            d["macro_batch"] = self.macro_batch
        if self.fast_bytes is not None:
            d["fast_bytes"] = self.fast_bytes
        return d

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunSpec":
        data = dict(data)
        scale = data.get("scale")
        if isinstance(scale, Mapping):
            data["scale"] = ScaleSpec(**scale)
        return cls(**data)

    def cache_key(self) -> str:
        """Deterministic content hash for the persistent result cache."""
        return cache_key_of(self.to_dict())

    def stream_key(self) -> str:
        """Identity of this spec's workload event stream.

        The stream depends on the workload, its scale and the seed (the
        engine draws it from :func:`~repro.sim.engine.stream_rng`) --
        not on the policy or machine, nor on ``max_accesses``, which
        only stops the engine consuming it.
        """
        payload = json.dumps(
            {"workload": self.workload,
             # Its fields are ints: ``dataclasses.asdict`` would deep-copy
            # each one.
            "scale": dict(vars(self.scale)), "seed": self.seed},
            sort_keys=True, separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:32]

    def label(self) -> str:
        """Short human-readable cell name for progress output."""
        parts = [self.workload, self.policy, self.ratio]
        if self.machine_preset is not None:
            parts.append(self.machine_preset)
        if self.fast_bytes is not None:
            parts.append(f"fast={self.fast_bytes}B")
        if self.machine_variant != "tiered":
            parts.append(self.machine_variant)
        return " ".join(parts)


def normalized_performance(result: SimResult, baseline: SimResult) -> float:
    """Paper-style normalised performance: baseline runtime / runtime."""
    if result.runtime_ns <= 0:
        raise ValueError("result has zero runtime")
    return baseline.runtime_ns / result.runtime_ns
