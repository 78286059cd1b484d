"""Trace exporters: JSONL event logs, Chrome ``trace_event``, ASCII.

Three consumers, three formats:

* :func:`write_events_jsonl` / :func:`read_events_jsonl` -- one JSON
  object per line, lossless round-trip of :class:`~repro.obs.tracer.TraceEvent`
  records plus a leading ``meta`` line.  The grep-able archival format.
* :func:`chrome_trace` / :func:`write_chrome_trace` -- the Chrome
  ``trace_event`` JSON loadable in Perfetto (https://ui.perfetto.dev) or
  ``chrome://tracing``.  Point events become instants, ``epoch`` events
  become duration slices on a virtual-time track, and the engine's
  ``phase_ns`` wall-time breakdown becomes an aggregate slice track.
* :func:`ascii_timeline` -- a terminal-friendly per-category event-rate
  timeline built on :mod:`repro.analysis.ascii`.

Timestamps: trace events carry *virtual* nanoseconds; Chrome's ``ts``
unit is microseconds, so virtual ns are divided by 1e3 -- one simulated
millisecond reads as one millisecond in Perfetto.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.obs.tracer import TraceEvent, Tracer, level_name

#: Synthetic pid/tids for the Chrome export's tracks.
_PID = 1
_TID_EVENTS = 1
_TID_EPOCHS = 2
_TID_PHASES = 3

#: Canonical order of the engine's wall-time phases in rendered output
#: (generation first -- it feeds every later stage); unknown phase names
#: sort after these in insertion order.
PHASE_ORDER = ("gen_ns", "sample_ns", "tlb_ns", "policy_ns")


def ordered_phases(phase_ns: Dict[str, float]) -> List[Tuple[str, float]]:
    """``phase_ns`` items with canonical phases first, others appended."""
    known = [(name, float(phase_ns[name]))
             for name in PHASE_ORDER if name in phase_ns]
    extra = [(name, float(ns)) for name, ns in phase_ns.items()
             if name not in PHASE_ORDER]
    return known + extra


# -- JSONL ---------------------------------------------------------------------


def write_events_jsonl(
    path: str,
    events: Sequence[TraceEvent],
    meta: Optional[Dict[str, Any]] = None,
) -> int:
    """Write a ``meta`` line plus one event per line; returns event count."""
    with open(path, "w") as fh:
        fh.write(json.dumps({"type": "meta", **(meta or {})}) + "\n")
        for event in events:
            fh.write(json.dumps(
                {"type": "event", **event.to_json_dict()}
            ) + "\n")
    return len(events)


def read_events_jsonl(path: str) -> Tuple[Dict[str, Any], List[TraceEvent]]:
    """Inverse of :func:`write_events_jsonl`: ``(meta, events)``."""
    meta: Dict[str, Any] = {}
    events: List[TraceEvent] = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            kind = record.pop("type", "event")
            if kind == "meta":
                meta = record
            else:
                events.append(TraceEvent.from_json_dict(record))
    return meta, events


# -- Chrome trace_event --------------------------------------------------------


def chrome_trace(
    events: Sequence[TraceEvent],
    phase_ns: Optional[Dict[str, float]] = None,
    meta: Optional[Dict[str, Any]] = None,
    title: str = "repro-memtis",
) -> Dict[str, Any]:
    """Build a Chrome ``trace_event`` document (JSON-ready dict).

    With no events and no phases (e.g. a cache hit's stub) the document
    holds no records at all, not even track names.
    """
    trace_events: List[Dict[str, Any]] = [
        {"name": "process_name", "ph": "M", "pid": _PID,
         "args": {"name": title}},
        {"name": "thread_name", "ph": "M", "pid": _PID, "tid": _TID_EVENTS,
         "args": {"name": "events (virtual time)"}},
        {"name": "thread_name", "ph": "M", "pid": _PID, "tid": _TID_EPOCHS,
         "args": {"name": "epochs (virtual time)"}},
    ] if events or phase_ns else []
    for event in events:
        payload = event.to_json_dict()
        args = payload["args"]
        args["level"] = level_name(event.level)
        if event.cat == "epoch":
            dur_ns = float(args.get("dur_ns", 0.0))
            trace_events.append({
                "name": event.name, "cat": event.cat, "ph": "X",
                "ts": payload["ts_ns"] / 1e3, "dur": dur_ns / 1e3,
                "pid": _PID, "tid": _TID_EPOCHS, "args": args,
            })
        else:
            trace_events.append({
                "name": event.name, "cat": event.cat, "ph": "i",
                "ts": payload["ts_ns"] / 1e3, "pid": _PID,
                "tid": _TID_EVENTS, "s": "t", "args": args,
            })
    if phase_ns:
        trace_events.append({
            "name": "thread_name", "ph": "M", "pid": _PID, "tid": _TID_PHASES,
            "args": {"name": "wall-time phases (aggregate)"},
        })
        cursor = 0.0
        for phase, ns in ordered_phases(phase_ns):
            trace_events.append({
                "name": phase, "cat": "phase", "ph": "X",
                "ts": cursor / 1e3, "dur": ns / 1e3,
                "pid": _PID, "tid": _TID_PHASES,
                "args": {"wall_ns": ns},
            })
            cursor += ns
    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": dict(meta or {}),
    }


def write_chrome_trace(
    path: str,
    events: Sequence[TraceEvent],
    phase_ns: Optional[Dict[str, float]] = None,
    meta: Optional[Dict[str, Any]] = None,
    title: str = "repro-memtis",
) -> int:
    """Serialise :func:`chrome_trace` to ``path``; returns event count."""
    doc = chrome_trace(events, phase_ns=phase_ns, meta=meta, title=title)
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return len(events)


# -- ASCII ---------------------------------------------------------------------


def ascii_timeline(
    events: Sequence[TraceEvent],
    width: int = 64,
    height: int = 12,
    title: Optional[str] = "trace events over virtual time",
) -> str:
    """Per-category event-count timeline rendered as characters."""
    from repro.analysis.ascii import event_timeline

    return event_timeline(events, width=width, height=height, title=title)


# -- convenience over a whole tracer/run ---------------------------------------


def export_tracer(
    tracer: Tracer,
    path: str,
    fmt: Optional[str] = None,
    phase_ns: Optional[Dict[str, float]] = None,
    meta: Optional[Dict[str, Any]] = None,
) -> int:
    """Write a tracer's buffered events to ``path`` in ``fmt``.

    ``fmt`` is ``"chrome"``, ``"jsonl"`` or ``"ascii"``; ``None`` infers
    from the extension (``.jsonl`` -> jsonl, ``.txt`` -> ascii, else
    chrome).  Returns the number of events exported.
    """
    if fmt is None:
        lower = path.lower()
        if lower.endswith(".jsonl"):
            fmt = "jsonl"
        elif lower.endswith(".txt"):
            fmt = "ascii"
        else:
            fmt = "chrome"
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    events = tracer.events()
    full_meta = {**(meta or {}), "tracer": tracer.stats()}
    if phase_ns:
        full_meta["phase_ns"] = {k: float(v) for k, v in phase_ns.items()}
    if fmt == "jsonl":
        return write_events_jsonl(path, events, meta=full_meta)
    if fmt == "chrome":
        return write_chrome_trace(path, events, phase_ns=phase_ns,
                                  meta=full_meta)
    if fmt == "ascii":
        text = ascii_timeline(events)
        if phase_ns:
            from repro.analysis.ascii import bar_chart

            phases = ordered_phases(phase_ns)
            text += "\n\n" + bar_chart(
                [name for name, _ in phases],
                [ns / 1e6 for _, ns in phases],
                title="wall-time phases (ms)",
            )
        with open(path, "w") as fh:
            fh.write(text + "\n")
        return len(events)
    raise ValueError(
        f"unknown trace export format {fmt!r}; "
        "expected 'chrome', 'jsonl' or 'ascii'"
    )
