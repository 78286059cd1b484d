"""``repro top``: ASCII dashboard over a live sweep directory.

Pure rendering -- reads nothing itself; callers pass the status dict
from :func:`repro.service.server.build_status` (queue rows: cell states
and the progress workers write there) and get a screenful of text back.
The cell table looks like::

    sweep: 8 cells | 3 running 2 done 1 cached 1 resumed 1 failed
    throughput: 3.4M acc/s | accesses: 41.2M | violations: 0

    cell              state    progress              epoch  rate      eta
    silo memtis 1:8   running  [#######>......]  52%     17  1.2M/s   9s
    ...

The same module backs ``--snapshot`` one-shot mode (CI logs) and the
refreshing live mode (redraw every ``--interval`` seconds).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.service.server import aggregate, display_state

#: Render order for the header tallies (terminal states last).
_STATE_ORDER = ("running", "retrying", "stalled", "queued", "done", "cached",
                "resumed", "failed", "unknown")


def _humanize(value: Optional[float]) -> str:
    """Compact human-readable magnitude (accesses, rates)."""
    if value is None:
        return "-"
    value = float(value)
    for bound, suffix in ((1e9, "G"), (1e6, "M"), (1e3, "k")):
        if abs(value) >= bound:
            return f"{value / bound:.1f}{suffix}"
    return f"{value:.0f}"


def _eta(seconds: Optional[float]) -> str:
    if seconds is None:
        return "-"
    seconds = float(seconds)
    if seconds >= 3600:
        return f"{seconds / 3600:.1f}h"
    if seconds >= 60:
        return f"{seconds / 60:.1f}m"
    return f"{seconds:.0f}s"


def progress_bar(fraction: float, width: int = 14) -> str:
    """``[#####>........]`` with the head marking partial progress."""
    fraction = min(max(float(fraction), 0.0), 1.0)
    filled = int(fraction * width)
    head = ">" if 0 < filled < width else ""
    if head:
        filled -= 1
    return "[" + "#" * filled + head + "." * (width - filled - len(head)) + "]"


def render_dashboard(cells: List[Dict[str, Any]], width: int = 80) -> str:
    """The cell table with its header, as a string (no trailing newline)."""
    agg = aggregate(cells)
    tallies = " ".join(
        f"{agg['states'][state]} {state}"
        for state in _STATE_ORDER if agg["states"].get(state)
    ) or "no cells yet"
    lines = [
        f"sweep: {agg['cells']} cells | {tallies}",
        f"throughput: {_humanize(agg['running_accesses_per_sec'])} acc/s"
        f" | accesses: {_humanize(agg['total_accesses'])}"
        f" | violations: {agg['violations']}",
        "",
    ]
    if not cells:
        lines.append("(waiting for the first cell...)")
        return "\n".join(lines)

    label_w = min(max((len(str(c.get("label", ""))) for c in cells),
                      default=4), max(width - 56, 12))
    header = (f"{'cell':<{label_w}}  {'state':<8}  {'progress':<21}"
              f"  {'epoch':>5}  {'rate':>8}  {'eta':>6}")
    lines.append(header)
    lines.append("-" * min(len(header), width))
    for cell in cells:
        label = str(cell.get("label", cell.get("key", "?")))[:label_w]
        state = display_state(cell)
        fraction = float(cell.get("progress") or 0.0)
        if state in ("done", "cached"):
            fraction = 1.0
        pct = f"{fraction * 100:3.0f}%"
        bar = progress_bar(fraction)
        # A freshly (re)started cell reports a null rate/ETA until it has
        # post-resume work to divide by; render both as unknown.  A
        # stalled cell's last-known rate would be a lie -- also unknown.
        live = cell.get("state") == "running" and not cell.get("stalled")
        raw_rate = cell.get("accesses_per_sec")
        rate = (_humanize(raw_rate) + "/s"
                if live and raw_rate is not None else "-")
        eta = _eta(cell.get("eta_s")) if live else "-"
        lines.append(
            f"{label:<{label_w}}  {state:<8}  {bar} {pct}"
            f"  {int(cell.get('epoch') or 0):>5}  {rate:>8}  {eta:>6}"
        )
        error = cell.get("error")
        if state == "failed" and error:
            lines.append(f"{'':<{label_w}}  !! {str(error)[:width - label_w - 5]}")
    return "\n".join(lines)


#: Queue-state render order for the service header (live states first).
_JOB_STATE_ORDER = ("queued", "running", "done", "cached", "failed")


def render_service_dashboard(status: Dict[str, Any], width: int = 80) -> str:
    """Dashboard for a sweep directory (queue + workers + cells).

    ``status`` is the dict from :func:`repro.service.server.build_status`:
    two header lines (queue tallies with lease/attempt counters, one
    entry per registered worker), then :func:`render_dashboard` over its
    cells.
    """
    jobs = status.get("jobs", {})
    totals = status.get("totals", {})
    total_jobs = sum(jobs.values())
    tallies = " ".join(
        f"{jobs[state]} {state}"
        for state in _JOB_STATE_ORDER if jobs.get(state)
    ) or "empty queue"
    lines = [
        f"queue: {total_jobs} jobs | {tallies}"
        f" | claims {totals.get('claims', 0)}"
        f" attempts {totals.get('attempts', 0)}"
        f" expirations {totals.get('expirations', 0)}"
        f" resumed {totals.get('resumed', 0)}",
    ]
    workers = status.get("workers", [])
    if workers:
        parts = []
        for worker in workers:
            entry = f"{worker.get('worker_id', '?')} {worker.get('state', '?')}"
            key = worker.get("current_key")
            if worker.get("state") == "running" and key:
                entry += f" [{str(key)[:8]}]"
            parts.append(entry)
        lines.append(f"workers: {len(workers)} | " + " | ".join(parts))
    else:
        lines.append("workers: none registered")
    lines.append("")
    lines.append(render_dashboard(status.get("cells", []), width=width))
    return "\n".join(lines)
