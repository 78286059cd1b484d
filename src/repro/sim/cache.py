"""Persistent, content-addressed cache of completed :class:`SimResult`\\ s.

Every simulation in this repo is a pure function of its
:class:`~repro.sim.runner.RunSpec` (workload, policy, ratio, capacity
kind, scale, seed, policy kwargs, ...): the engine, the workload traces
and the policies all derive their randomness from the spec's seed.  That
makes completed results safe to memoise on disk keyed by a deterministic
hash of the spec -- a second reproduction run pays zero simulations.

Storage layout: ``<cache_dir>/<key[:2]>/<key>.pkl`` where ``key`` is
``RunSpec.cache_key()`` (sha256 over the canonical spec JSON plus a
schema version).  Each entry is a pickle of ``{"spec": <spec dict>,
"result": <SimResult>}``; the embedded spec dict makes entries
self-describing for debugging.  Writes go through a temp file and
``os.replace`` so concurrent writers (parallel sweeps, several CLI
invocations) never expose a torn entry.

Cache invalidation: the key includes ``SPEC_SCHEMA_VERSION`` from
:mod:`repro.sim.runner` -- bump it when engine/policy changes alter
results -- and stale directories can simply be deleted
(``rm -rf ~/.cache/repro-memtis``) or bypassed with ``--no-cache``.

The *default* cache used by ``RunSpec.run``/``run_sweep``/the CLIs is
process-wide and controlled by :func:`configure` (the CLI flags
``--cache-dir`` / ``--no-cache`` call it) or the environment:
``REPRO_CACHE_DIR`` relocates it, ``REPRO_NO_CACHE=1`` disables it.
"""

from __future__ import annotations

import os
import pickle
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Union

from repro.fsutil import write_atomic

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.sim.engine import SimResult
    from repro.sim.runner import RunSpec


@dataclass
class CacheStats:
    """Hit/miss/store counters for one :class:`ResultCache` instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    errors: int = 0


@dataclass
class ResultCache:
    """Content-addressed on-disk store of completed simulation results."""

    cache_dir: str
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self):
        self.cache_dir = os.fspath(self.cache_dir)
        try:
            os.makedirs(self.cache_dir, exist_ok=True)
        except (FileExistsError, NotADirectoryError) as exc:
            raise ValueError(
                f"cache dir {self.cache_dir!r} exists and is not a directory"
            ) from exc

    def _path(self, key: str) -> str:
        return os.path.join(self.cache_dir, key[:2], f"{key}.pkl")

    def get(self, spec: "RunSpec") -> Optional["SimResult"]:
        """Return the cached result for ``spec``, or ``None`` on a miss.

        A corrupt or unreadable entry counts as a miss and is removed so
        the slot can be rewritten cleanly -- but only if the path still
        refers to the exact file we read.  A concurrent ``put`` may have
        ``os.replace``\\ d a fresh entry over the corrupt one between our
        read and the unlink; deleting blindly would discard that good
        entry.
        """
        result = self.load(spec)
        if result is None:
            self.stats.misses += 1
        else:
            self.stats.hits += 1
        return result

    def load(self, spec: "RunSpec") -> Optional["SimResult"]:
        """:meth:`get` without counting a hit or miss.

        For reading back entries the caller's own workers just committed
        (a sweep collecting its results), which are not memo lookups.
        Corrupt entries are still counted in ``stats.errors`` and removed.
        """
        path = self._path(spec.cache_key())
        st = None
        try:
            with open(path, "rb") as fh:
                st = os.fstat(fh.fileno())
                entry = pickle.load(fh)
            return entry["result"]
        except FileNotFoundError:
            return None
        except Exception:
            self.stats.errors += 1
            self._remove_corrupt(path, st)
            return None

    def _remove_corrupt(self, path: str, st: Optional[os.stat_result]) -> bool:
        """Unlink ``path`` unless it no longer matches the stat we read.

        ``st`` is the fstat of the file handle the corrupt bytes came
        from (None if the open itself failed).  If the directory entry's
        identity (inode, mtime_ns, size) has changed, a concurrent
        writer replaced the entry -- leave the new file alone.
        """
        if st is None:
            return False
        try:
            cur = os.stat(path)
        except OSError:
            return False  # already gone
        if (cur.st_ino, cur.st_mtime_ns, cur.st_size) != (
            st.st_ino, st.st_mtime_ns, st.st_size
        ):
            return False  # replaced by a fresh entry; keep it
        try:
            os.unlink(path)
            return True
        except OSError:
            return False

    def put(self, spec: "RunSpec", result: "SimResult") -> str:
        """Store ``result`` under ``spec``'s key; returns the entry path."""
        path = self._path(spec.cache_key())
        entry = {"spec": spec.to_dict(), "result": result}
        write_atomic(path, lambda fh: pickle.dump(
            entry, fh, protocol=pickle.HIGHEST_PROTOCOL), binary=True)
        self.stats.stores += 1
        return path

    def contains(self, spec: "RunSpec") -> bool:
        return os.path.exists(self._path(spec.cache_key()))

    def __len__(self) -> int:
        n = 0
        for _root, _dirs, files in os.walk(self.cache_dir):
            n += sum(1 for f in files if f.endswith(".pkl") and not f.startswith("."))
        return n

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        for root, _dirs, files in os.walk(self.cache_dir):
            for f in files:
                if f.endswith(".pkl"):
                    try:
                        os.unlink(os.path.join(root, f))
                        removed += 1
                    except OSError:
                        pass
        return removed


#: Sentinel accepted by ``cache=`` parameters meaning "the process default".
DEFAULT = "default"

# Tri-state module config: until configure() is called, the default cache
# is derived lazily from the environment on each use.
_configured = False
_configured_cache: Optional[ResultCache] = None


def default_cache_dir() -> str:
    """``$REPRO_CACHE_DIR`` or ``~/.cache/repro-memtis`` (XDG-aware)."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return env
    xdg = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return os.path.join(xdg, "repro-memtis")


def configure(
    cache_dir: Optional[Union[str, os.PathLike]] = None,
    enabled: bool = True,
) -> Optional[ResultCache]:
    """Set the process-wide default cache (used by ``cache="default"``).

    ``configure(enabled=False)`` disables caching; ``configure(cache_dir=d)``
    pins it to ``d``; ``configure()`` pins it to :func:`default_cache_dir`.
    """
    global _configured, _configured_cache
    _configured = True
    _configured_cache = (
        ResultCache(os.fspath(cache_dir) if cache_dir else default_cache_dir())
        if enabled else None
    )
    return _configured_cache


def reset() -> None:
    """Forget any :func:`configure` override; back to env-driven defaults."""
    global _configured, _configured_cache
    _configured = False
    _configured_cache = None


def default_cache() -> Optional[ResultCache]:
    """The process default cache, or ``None`` when caching is disabled."""
    if _configured:
        return _configured_cache
    if os.environ.get("REPRO_NO_CACHE"):
        return None
    return ResultCache(default_cache_dir())


def resolve_cache(
    cache: Union[None, str, ResultCache] = DEFAULT,
) -> Optional[ResultCache]:
    """Normalise a ``cache=`` argument.

    ``"default"`` -> the process default (possibly ``None``), ``None`` ->
    caching disabled, a :class:`ResultCache` -> itself, any other
    string/path -> a cache rooted there.
    """
    if cache is None:
        return None
    if isinstance(cache, ResultCache):
        return cache
    if cache == DEFAULT:
        return default_cache()
    return ResultCache(os.fspath(cache))
