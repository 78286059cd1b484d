"""OpenMetrics text exposition over sweep cells.

External scrapers (Prometheus, a CI log grepper) should not need to
parse our status JSON.  This module renders the same status in the
OpenMetrics text exposition format
(https://prometheus.io/docs/specs/om/open_metrics_spec/):

* ``# TYPE`` metadata precedes every family's samples;
* counter sample names carry the ``_total`` suffix;
* label values escape ``\\``, ``"`` and newlines;
* the exposition ends with the mandatory ``# EOF`` line.

The entry point, :func:`service_exposition`, renders a sweep
directory's ``build_status`` snapshot (what ``repro top --openmetrics``
and the status API serve).
"""

from __future__ import annotations

import re
from typing import Any, Dict, List, Optional

from repro.obs.heartbeat import aggregate, display_state

_NAME_OK = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_NAME_BAD_CHARS = re.compile(r"[^a-zA-Z0-9_:]")


def metric_name(name: str) -> str:
    """Sanitise an arbitrary string into a legal metric name."""
    name = _NAME_BAD_CHARS.sub("_", name)
    if not name or not _NAME_OK.match(name):
        name = "_" + name
    return name


def escape_label(value: Any) -> str:
    """Escape a label value per the exposition-format grammar."""
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _labels(labels: Dict[str, Any]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{metric_name(str(k))}="{escape_label(v)}"'
        for k, v in labels.items()
    )
    return "{" + inner + "}"


def _num(value: Any) -> str:
    value = float(value)
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


class _Family:
    """One metric family: TYPE line plus its samples, emitted together."""

    def __init__(self, name: str, kind: str, out: List[str]):
        self.name = metric_name(name)
        self.kind = kind
        self.out = out
        out.append(f"# TYPE {self.name} {kind}")

    def sample(self, value: Any, labels: Optional[Dict[str, Any]] = None
               ) -> None:
        suffix = "_total" if self.kind == "counter" else ""
        self.out.append(
            f"{self.name}{suffix}{_labels(labels or {})} {_num(value)}"
        )


def _sweep_families(out: List[str], cells: List[Dict[str, Any]]) -> None:
    """Append the per-sweep/per-cell families (no ``# EOF``)."""
    agg = aggregate(cells)

    fam = _Family("repro_sweep_cells", "gauge", out)
    fam.sample(agg["cells"], {"state": "all"})
    for state in sorted(agg["states"]):
        fam.sample(agg["states"][state], {"state": state})
    _Family("repro_sweep_accesses_per_second", "gauge", out).sample(
        agg["running_accesses_per_sec"]
    )
    _Family("repro_sweep_violations", "gauge", out).sample(agg["violations"])

    def cell_labels(cell: Dict[str, Any]) -> Dict[str, Any]:
        return {
            "cell": cell.get("key", ""),
            "workload": cell.get("workload", ""),
            "policy": cell.get("policy", ""),
            "state": display_state(cell),
        }

    progress = _Family("repro_cell_progress_ratio", "gauge", out)
    for cell in cells:
        progress.sample(float(cell.get("progress") or 0.0), cell_labels(cell))
    epoch = _Family("repro_cell_epoch", "gauge", out)
    for cell in cells:
        epoch.sample(int(cell.get("epoch") or 0), cell_labels(cell))
    accesses = _Family("repro_cell_accesses", "counter", out)
    for cell in cells:
        accesses.sample(int(cell.get("accesses") or 0), cell_labels(cell))
    rate = _Family("repro_cell_accesses_per_second", "gauge", out)
    for cell in cells:
        rate.sample(float(cell.get("accesses_per_sec") or 0.0),
                    cell_labels(cell))
    resumed = _Family("repro_cell_resumed", "gauge", out)
    for cell in cells:
        resumed.sample(1 if cell.get("resumed") else 0, cell_labels(cell))


def service_exposition(status: Dict[str, Any]) -> str:
    """Render a service ``build_status`` snapshot as OpenMetrics text.

    Queue and worker families first (job states, lease/attempt/expiry
    counters), then the per-sweep and per-cell families -- one scrape
    covers both layers.
    """
    out: List[str] = []
    jobs = _Family("repro_service_jobs", "gauge", out)
    for state in sorted(status.get("jobs", {})):
        jobs.sample(status["jobs"][state], {"state": state})
    workers = status.get("workers", [])
    by_state: Dict[str, int] = {}
    for worker in workers:
        state = str(worker.get("state", "unknown"))
        by_state[state] = by_state.get(state, 0) + 1
    wfam = _Family("repro_service_workers", "gauge", out)
    wfam.sample(len(workers), {"state": "all"})
    for state in sorted(by_state):
        wfam.sample(by_state[state], {"state": state})
    totals = status.get("totals", {})
    _Family("repro_service_claims", "counter", out).sample(
        totals.get("claims", 0))
    _Family("repro_service_attempts", "counter", out).sample(
        totals.get("attempts", 0))
    _Family("repro_service_lease_expirations", "counter", out).sample(
        totals.get("expirations", 0))
    _Family("repro_service_resumed_jobs", "gauge", out).sample(
        totals.get("resumed", 0))
    _Family("repro_service_drained", "gauge", out).sample(
        1 if status.get("drained") else 0)
    _sweep_families(out, status.get("cells", []))
    out.append("# EOF")
    return "\n".join(out) + "\n"
