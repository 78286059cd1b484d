"""Structured tracing: typed events on a bounded ring buffer.

The simulator's decisions -- why a page was promoted, why the split
estimator fired, when the thresholds moved -- are invisible in
end-of-run aggregates.  :class:`Tracer` records them as typed
:class:`TraceEvent` records stamped with *virtual* simulation time, so a
run can be replayed decision by decision and exported to the Chrome
``trace_event`` format (:mod:`repro.obs.export`).

Cost discipline: tracing is **disabled by default** and every emit site
is guarded (``if tracer.enabled:``) so a disabled tracer costs one
attribute load + branch per site -- no event object, no dict, no
formatting.  With tracing enabled, events land on a fixed-capacity ring
(oldest dropped first, drops counted), so even debug-level tracing of a
long run has bounded memory.

Event taxonomy (category / name):

========== ===================== ==========================================
category    names                 emitted by
========== ===================== ==========================================
sample      sample_fold           ksampled per folded PEBS batch (debug)
sample      buffer_overflow       PEBS sampler when records drop
migrate     promote, demote       kmigrated page movement
migrate     cascade               demotion cascade making room on a full
                                  intermediate tier (N >= 3 machines)
split       split_decision        benefit estimation outcome (eHR/rHR)
split       split, collapse       per huge page split / collapse
threshold   threshold_update      Algorithm 1 adaptation (old -> new)
cooling     cooling               histogram halving pass
period      period_adjust         PEBS sampling-period reprogramming
engine      demand_map,           engine-level faults and region events
            hint_fault
epoch       epoch                 one span per epoch (one series row)
fault       sample_drop,          injected faults (``repro.check.faults``):
            sample_dup,           PEBS record loss/replay, fast-tier
            alloc_outage,         admission outages, delayed kmigrated
            delayed_tick, kill    ticks, and the kill-at-epoch abort
========== ===================== ==========================================
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

#: Severity levels (a subset of the stdlib logging scale).
DEBUG = 10
INFO = 20
WARN = 30

_LEVEL_NAMES = {DEBUG: "debug", INFO: "info", WARN: "warn"}
_NAME_LEVELS = {name: lvl for lvl, name in _LEVEL_NAMES.items()}

#: Known event categories (used for CLI validation / `--events`).
CATEGORIES = (
    "sample", "migrate", "split", "threshold", "cooling", "period",
    "engine", "epoch", "fault",
)


def level_name(level: int) -> str:
    return _LEVEL_NAMES.get(level, str(level))


def parse_level(value) -> int:
    """``"debug"``/``"info"``/``"warn"`` or an int -> numeric level."""
    if isinstance(value, int):
        return value
    try:
        return _NAME_LEVELS[str(value).strip().lower()]
    except KeyError:
        raise ValueError(
            f"unknown trace level {value!r}; expected one of "
            f"{sorted(_NAME_LEVELS)}"
        ) from None


@dataclass
class TraceEvent:
    """One structured event at a point (or span) of virtual time.

    ``ts_ns`` is simulation time.  ``args`` carries the event's typed
    payload; span events (category ``epoch``) put their length in
    ``args["dur_ns"]``.
    """

    ts_ns: float
    cat: str
    name: str
    level: int = INFO
    args: Dict[str, Any] = field(default_factory=dict)

    def to_json_dict(self) -> Dict[str, Any]:
        """Plain-type dict for JSONL export (numpy scalars coerced)."""
        return {
            "ts_ns": float(self.ts_ns),
            "cat": self.cat,
            "name": self.name,
            "level": int(self.level),
            "args": {str(k): _plain(v) for k, v in self.args.items()},
        }

    @classmethod
    def from_json_dict(cls, data: Dict[str, Any]) -> "TraceEvent":
        return cls(
            ts_ns=float(data["ts_ns"]),
            cat=str(data["cat"]),
            name=str(data["name"]),
            level=int(data.get("level", INFO)),
            args=dict(data.get("args", {})),
        )


def _plain(value: Any) -> Any:
    """Coerce numpy scalars/arrays (and anything exotic) to JSON types."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    item = getattr(value, "item", None)
    if item is not None and getattr(value, "ndim", 1) == 0:
        return item()
    tolist = getattr(value, "tolist", None)
    if tolist is not None:
        return tolist()
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [_plain(v) for v in value]
    return str(value)


class Tracer:
    """Guarded event sink with severity and category filtering.

    The tracer carries its own virtual clock (``now_ns``), advanced by
    the engine once per batch, so deep components (ksampled, the PEBS
    sampler) can stamp events without threading timestamps through every
    call.  Explicit ``ts_ns`` overrides it (used for span starts).
    """

    __slots__ = (
        "enabled", "level", "now_ns", "_categories", "_ring",
        "capacity", "emitted", "dropped",
    )

    def __init__(
        self,
        enabled: bool = False,
        level: int = INFO,
        categories: Optional[Iterable[str]] = None,
        capacity: int = 1 << 16,
    ):
        if capacity <= 0:
            raise ValueError("tracer capacity must be positive")
        self.enabled = bool(enabled)
        self.level = parse_level(level)
        self.now_ns = 0.0
        self._categories: Optional[frozenset] = (
            frozenset(categories) if categories is not None else None
        )
        self.capacity = int(capacity)
        self._ring: deque = deque(maxlen=self.capacity)
        self.emitted = 0
        self.dropped = 0

    # -- filtering ---------------------------------------------------------

    @property
    def categories(self) -> Optional[Tuple[str, ...]]:
        if self._categories is None:
            return None
        return tuple(sorted(self._categories))

    def enabled_for(self, cat: str, level: int = INFO) -> bool:
        """Cheap guard for call sites that build non-trivial payloads."""
        return (
            self.enabled
            and level >= self.level
            and (self._categories is None or cat in self._categories)
        )

    # -- emission ----------------------------------------------------------

    def emit(
        self,
        cat: str,
        name: str,
        level: int = INFO,
        ts_ns: Optional[float] = None,
        **args,
    ) -> None:
        """Record one event (no-op unless :meth:`enabled_for` passes)."""
        if not self.enabled_for(cat, level):
            return
        if len(self._ring) == self.capacity:
            self.dropped += 1
        self._ring.append(TraceEvent(
            ts_ns=self.now_ns if ts_ns is None else float(ts_ns),
            cat=cat, name=name, level=level, args=args,
        ))
        self.emitted += 1

    # -- access ------------------------------------------------------------

    def events(self) -> List[TraceEvent]:
        """Buffered events, oldest first."""
        return list(self._ring)

    def clear(self) -> None:
        self._ring.clear()

    def __len__(self) -> int:
        return len(self._ring)

    def counts_by_category(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for event in self._ring:
            out[event.cat] = out.get(event.cat, 0) + 1
        return out

    def stats(self) -> Dict[str, Any]:
        """Summary suitable for ``SimResult.to_dict()`` serialisation."""
        return {
            "enabled": self.enabled,
            "level": level_name(self.level),
            "categories": (
                None if self._categories is None else sorted(self._categories)
            ),
            "capacity": self.capacity,
            "emitted": self.emitted,
            "dropped": self.dropped,
            "buffered": len(self._ring),
        }


#: Shared always-disabled tracer for components constructed without one.
NULL_TRACER = Tracer(enabled=False)


def make_tracer(
    level="info",
    events: Optional[Sequence[str]] = None,
    capacity: int = 1 << 16,
) -> Tracer:
    """Enabled tracer from CLI-ish arguments (level name, category list)."""
    categories = None
    if events:
        unknown = sorted(set(events) - set(CATEGORIES))
        if unknown:
            raise ValueError(
                f"unknown event categories {unknown}; expected a subset of "
                f"{list(CATEGORIES)}"
            )
        categories = tuple(events)
    return Tracer(
        enabled=True, level=parse_level(level), categories=categories,
        capacity=capacity,
    )
