"""ASCII charts: bar charts for the figures, heat maps for Fig. 1."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

_SHADES = " .:-=+*#%@"


def bar_chart(
    labels: Sequence[str],
    values: Sequence[float],
    title: Optional[str] = None,
    width: int = 50,
    reference: Optional[float] = None,
) -> str:
    """Horizontal bar chart; ``reference`` draws a marker (e.g. 1.0)."""
    if len(labels) != len(values):
        raise ValueError("labels and values must have the same length")
    vmax = max(list(values) + ([reference] if reference else [])) or 1.0
    label_w = max((len(l) for l in labels), default=0)
    lines = []
    if title:
        lines.append(title)
        lines.append("-" * len(title))
    for label, value in zip(labels, values):
        n = int(round(value / vmax * width))
        bar = "#" * n
        if reference is not None:
            ref_pos = int(round(reference / vmax * width))
            if ref_pos >= len(bar):
                bar = bar.ljust(ref_pos) + "|"
            else:
                bar = bar[:ref_pos] + "|" + bar[ref_pos + 1 :]
        lines.append(f"{label.ljust(label_w)}  {bar} {value:.3f}")
    return "\n".join(lines)


def heatmap(grid: np.ndarray, title: Optional[str] = None, width: int = 72,
            height: int = 20) -> str:
    """Render a (time x address) matrix with intensity shading."""
    if grid.size == 0:
        return "(empty heat map)"
    # Resample to the target text resolution.
    t_idx = np.linspace(0, grid.shape[0] - 1, min(height, grid.shape[0])).astype(int)
    a_idx = np.linspace(0, grid.shape[1] - 1, min(width, grid.shape[1])).astype(int)
    small = grid[np.ix_(t_idx, a_idx)]
    vmax = small.max() or 1.0
    lines = []
    if title:
        lines.append(title)
    for row in small:
        shades = [(_SHADES[min(len(_SHADES) - 1, int(v / vmax * (len(_SHADES) - 1)))])
                  for v in row]
        lines.append("".join(shades))
    lines.append(f"(x: address, y: time; max intensity {vmax:.0f})")
    return "\n".join(lines)


def event_timeline(
    events,
    width: int = 64,
    height: int = 12,
    title: Optional[str] = None,
) -> str:
    """Per-category event-count timeline for a list of trace events.

    ``events`` are :class:`repro.obs.tracer.TraceEvent` records (or
    anything with ``ts_ns``/``cat``).  Virtual time is bucketed into
    ``width`` columns and each category's per-bucket event count becomes
    one series of :func:`timeline_chart`.
    """
    events = list(events)
    if not events:
        return (title + "\n" if title else "") + "(no events)"
    ts = np.array([e.ts_ns for e in events], dtype=np.float64)
    t0, t1 = float(ts.min()), float(ts.max())
    span = (t1 - t0) or 1.0
    buckets = np.minimum(
        ((ts - t0) / span * (width - 1)).astype(int), width - 1
    )
    cats = sorted({e.cat for e in events})
    series: Dict[str, List[float]] = {}
    for cat in cats:
        counts = np.zeros(width, dtype=np.float64)
        idx = buckets[np.array([e.cat == cat for e in events], dtype=bool)]
        np.add.at(counts, idx, 1.0)
        series[cat] = counts.tolist()
    times_s = ((t0 + np.arange(width) / (width - 1 or 1) * span) / 1e9).tolist()
    return timeline_chart(times_s, series, title=title,
                          width=width, height=height)


def timeline_chart(
    times_s: Sequence[float],
    series: Dict[str, Sequence[float]],
    title: Optional[str] = None,
    width: int = 64,
    height: int = 12,
) -> str:
    """Plot one or more time series as a character grid (Fig. 9/11)."""
    lines: List[str] = []
    if title:
        lines.append(title)
    if not times_s:
        lines.append("(no samples)")
        return "\n".join(lines)
    all_vals = [v for vals in series.values() for v in vals]
    vmax = max(all_vals) if all_vals else 1.0
    vmax = vmax or 1.0
    grid = [[" "] * width for _ in range(height)]
    t0, t1 = times_s[0], times_s[-1] or 1.0
    span = (t1 - t0) or 1.0
    # Unique mark per series: prefer the initial letter, fall back to a
    # symbol palette when two series share one (memtis vs memtis-ns).
    marks: List[str] = []
    fallback = iter("*o+x%&$~^!")
    for name in series:
        mark = name[0].upper() if name else "*"
        while mark in marks:
            mark = next(fallback, "?")
        marks.append(mark)
    for mark, (name, vals) in zip(marks, series.items()):
        for t, v in zip(times_s, vals):
            x = int((t - t0) / span * (width - 1))
            y = height - 1 - int(min(v, vmax) / vmax * (height - 1))
            grid[y][x] = mark
    lines.extend("".join(row) for row in grid)
    legend = "  ".join(f"{mark}={name}" for mark, name in zip(marks, series))
    lines.append(f"(y max {vmax:.3g}; {legend})")
    return "\n".join(lines)
