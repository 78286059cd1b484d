"""Versioned, content-addressed epoch checkpoints of simulator state.

A checkpoint is the complete :meth:`repro.sim.engine.Simulation.state_dict`
captured at an epoch boundary by the one checkpoint walk
(:mod:`repro.snapshot.walk`): engine position and RNG streams, tier
accounting, address space, TLB, migration and run metrics, the PEBS
sampler and period controller, the policy (both histograms, per-page
counters, ksampled/kmigrated queues and split bookkeeping), the shared
counter registry, and the fault injector.  The
guarantee -- enforced by ``tests/test_snapshot.py`` -- is that
``run(N)`` and ``run(k) -> save -> load -> run(N-k)`` produce
bit-identical ``SimResult.to_dict()`` in every kernel mode.

Storage layout::

    <snapshot_dir>/<spec_key[:2]>/<spec_key>/epoch-00000007.pkl   # state
    <snapshot_dir>/<spec_key[:2]>/<spec_key>/epoch-00000007.json  # manifest

``spec_key`` is :meth:`repro.sim.runner.RunSpec.cache_key` -- the same
content hash the result cache uses, so a checkpoint can only ever be
resumed by the spec that produced it.  The sidecar JSON manifest makes
``repro snapshots list/inspect`` cheap: no state unpickling needed.
Each ``.pkl`` entry is ``{"manifest": ..., "state": <pickled bytes>}``;
the manifest records a sha256 of the state payload, verified at load
(corruption -> the entry is removed and the load is a miss, mirroring
:mod:`repro.sim.cache`).  Writes go through
:func:`repro.fsutil.write_atomic`, so concurrent writers never expose a
torn checkpoint.

Versioning: the manifest carries ``SNAPSHOT_FORMAT_VERSION`` (layout of
the entry itself) and ``SPEC_SCHEMA_VERSION`` (simulation semantics).
A mismatch on either refuses the resume -- a checkpoint taken before an
engine change must not silently seed a run under new semantics.

The process default store mirrors the result-cache configuration
pattern: ``REPRO_SNAPSHOT_DIR`` relocates it, otherwise it lives under
``<result cache dir>/snapshots``.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import re
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Union

from repro.fsutil import write_atomic

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.runner import RunSpec

#: Bump when the on-disk entry/manifest layout changes.  v3: the state
#: is the checkpoint walk's nodes (``repro.snapshot.walk``); v2 held one
#: hand-written dict per component, v1 a two-tier form.
SNAPSHOT_FORMAT_VERSION = 3

_EPOCH_RE = re.compile(r"^epoch-(\d{8})\.pkl$")


@dataclass
class SnapshotRecord:
    """One loaded checkpoint: its manifest plus the simulator state."""

    path: str
    manifest: Dict[str, Any]
    state: Dict[str, Any]

    @property
    def epoch(self) -> int:
        return int(self.manifest["epoch"])


@dataclass
class SnapshotStats:
    saves: int = 0
    loads: int = 0
    misses: int = 0
    errors: int = 0


@dataclass
class SnapshotStore:
    """On-disk store of epoch checkpoints, keyed by spec content hash."""

    directory: str
    stats: SnapshotStats = field(default_factory=SnapshotStats)

    def __post_init__(self):
        self.directory = os.fspath(self.directory)
        try:
            os.makedirs(self.directory, exist_ok=True)
        except (FileExistsError, NotADirectoryError) as exc:
            raise ValueError(
                f"snapshot dir {self.directory!r} exists and is not a directory"
            ) from exc

    # -- paths -------------------------------------------------------------

    def spec_dir(self, spec_key: str) -> str:
        return os.path.join(self.directory, spec_key[:2], spec_key)

    def _entry_path(self, spec_key: str, epoch: int) -> str:
        return os.path.join(self.spec_dir(spec_key), f"epoch-{epoch:08d}.pkl")

    # -- writing -----------------------------------------------------------

    def save(self, spec: "RunSpec", epoch: int, state: Dict[str, Any]) -> str:
        """Persist ``state`` as the checkpoint at ``epoch``; returns path."""
        from repro.sim.runner import SPEC_SCHEMA_VERSION

        spec_key = spec.cache_key()
        payload = pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
        manifest = {
            "format": SNAPSHOT_FORMAT_VERSION,
            "schema": SPEC_SCHEMA_VERSION,
            "spec_key": spec_key,
            "spec": spec.to_dict(),
            "epoch": int(epoch),
            "events_consumed": int(state["events_consumed"]),
            "now_ns": float(state["now_ns"]),
            "state_sha256": hashlib.sha256(payload).hexdigest(),
        }
        path = self._entry_path(spec_key, epoch)
        entry = {"manifest": manifest, "state": payload}
        write_atomic(path, lambda fh: pickle.dump(
            entry, fh, protocol=pickle.HIGHEST_PROTOCOL), binary=True)
        # Sidecar manifest for cheap list/inspect; written after the
        # entry so a manifest never points at a missing checkpoint.
        write_atomic(path[:-len(".pkl")] + ".json", lambda fh: json.dump(
            manifest, fh, indent=2, sort_keys=True))
        self.stats.saves += 1
        return path

    # -- reading -----------------------------------------------------------

    def epochs(self, spec: Union["RunSpec", str]) -> List[int]:
        """Epoch numbers with a stored checkpoint for ``spec``, ascending."""
        spec_key = spec if isinstance(spec, str) else spec.cache_key()
        try:
            names = os.listdir(self.spec_dir(spec_key))
        except FileNotFoundError:
            return []
        out = []
        for name in names:
            m = _EPOCH_RE.match(name)
            if m:
                out.append(int(m.group(1)))
        return sorted(out)

    def latest_epoch(self, spec: Union["RunSpec", str]) -> Optional[int]:
        epochs = self.epochs(spec)
        return epochs[-1] if epochs else None

    def load(
        self, spec: Union["RunSpec", str], epoch: Optional[int] = None
    ) -> Optional[SnapshotRecord]:
        """Load the checkpoint at ``epoch`` (default: latest), or ``None``.

        ``None`` means no usable checkpoint: nothing stored, a corrupt
        entry (removed), or a format/schema version mismatch (left in
        place -- it may still be readable by the code that wrote it).
        """
        from repro.sim.runner import SPEC_SCHEMA_VERSION

        spec_key = spec if isinstance(spec, str) else spec.cache_key()
        if epoch is None:
            epoch = self.latest_epoch(spec_key)
            if epoch is None:
                self.stats.misses += 1
                return None
        path = self._entry_path(spec_key, epoch)
        try:
            with open(path, "rb") as fh:
                entry = pickle.load(fh)
            manifest = entry["manifest"]
            payload = entry["state"]
            if hashlib.sha256(payload).hexdigest() != manifest["state_sha256"]:
                raise ValueError("state digest mismatch")
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except Exception:
            self.stats.errors += 1
            self.stats.misses += 1
            for stale in (path, path[:-len(".pkl")] + ".json"):
                try:
                    os.unlink(stale)
                except OSError:
                    pass
            return None
        if (manifest.get("format") != SNAPSHOT_FORMAT_VERSION
                or manifest.get("schema") != SPEC_SCHEMA_VERSION):
            self.stats.misses += 1
            return None
        self.stats.loads += 1
        return SnapshotRecord(
            path=path, manifest=manifest, state=pickle.loads(payload)
        )

    # -- enumeration (CLI) -------------------------------------------------

    def manifests(self, spec_key: Optional[str] = None) -> List[Dict[str, Any]]:
        """All sidecar manifests (optionally for one spec), sorted by
        (spec_key, epoch).  Reads only the JSON sidecars."""
        out = []
        for root, _dirs, files in os.walk(self.directory):
            for name in files:
                if not name.endswith(".json") or name.startswith("."):
                    continue
                try:
                    with open(os.path.join(root, name)) as fh:
                        manifest = json.load(fh)
                except (OSError, ValueError):
                    continue
                if spec_key and manifest.get("spec_key") != spec_key:
                    continue
                out.append(manifest)
        return sorted(
            out, key=lambda m: (m.get("spec_key", ""), m.get("epoch", 0))
        )

    def clear(self, spec: Union[None, "RunSpec", str] = None) -> int:
        """Delete checkpoints (all, or one spec's); returns count removed."""
        removed = 0
        if spec is not None:
            spec_key = spec if isinstance(spec, str) else spec.cache_key()
            roots = [self.spec_dir(spec_key)]
        else:
            roots = [self.directory]
        for top in roots:
            for root, _dirs, files in os.walk(top):
                for name in files:
                    if name.endswith((".pkl", ".json")):
                        try:
                            os.unlink(os.path.join(root, name))
                        except OSError:
                            continue
                        if name.endswith(".pkl"):
                            removed += 1
        return removed


#: Sentinel accepted by ``snapshots=`` parameters: "the process default".
DEFAULT = "default"

_configured = False
_configured_store: Optional[SnapshotStore] = None


def default_snapshot_dir() -> str:
    """``$REPRO_SNAPSHOT_DIR`` or ``<result cache dir>/snapshots``."""
    env = os.environ.get("REPRO_SNAPSHOT_DIR")
    if env:
        return env
    from repro.sim.cache import default_cache_dir

    return os.path.join(default_cache_dir(), "snapshots")


def configure(
    directory: Optional[Union[str, os.PathLike]] = None,
    enabled: bool = True,
) -> Optional[SnapshotStore]:
    """Pin the process-wide default store (or disable with enabled=False)."""
    global _configured, _configured_store
    _configured = True
    _configured_store = (
        SnapshotStore(os.fspath(directory) if directory
                      else default_snapshot_dir())
        if enabled else None
    )
    return _configured_store


def reset() -> None:
    """Forget any :func:`configure` override; back to env-driven defaults."""
    global _configured, _configured_store
    _configured = False
    _configured_store = None


def default_store() -> Optional[SnapshotStore]:
    if _configured:
        return _configured_store
    return SnapshotStore(default_snapshot_dir())


def resolve_store(
    snapshots: Union[None, str, SnapshotStore] = DEFAULT,
) -> Optional[SnapshotStore]:
    """Normalise a ``snapshots=`` argument (same contract as
    :func:`repro.sim.cache.resolve_cache`)."""
    if snapshots is None:
        return None
    if isinstance(snapshots, SnapshotStore):
        return snapshots
    if snapshots == DEFAULT:
        return default_store()
    return SnapshotStore(os.fspath(snapshots))
