"""Perf-regression radar over the committed ``BENCH_*.json`` trajectory.

``perfbench/bench.py --out FILE`` writes one run of the repository
benchmark.  :func:`reduce_runs` reduces one or more such runs to a
*point*: the median of every metric ``BENCHMARK.json`` declares, per
workload.  The committed ``benchmarks/BENCH_<pr>.json`` files are such
points, and :func:`radar` (the CI entry) gates a fresh run against the
newest of them.

The gates:

* throughput: each workload's ``accesses_per_sec`` is divided by the
  geometric mean over the workloads of the same point, so the speed of
  the machine cancels and no single workload is an anchor; it may drop
  by at most ``TOLERANCE``;
* coalescer: ``replay_small_batches`` must make at least
  ``COALESCER_MIN`` times as many TLB substream calls as
  ``replay_macro`` (the same trace without and with fusion); their
  throughput ratio is printed as a trend line, not gated;
* per-layer counts: every count-unit metric (``*.calls``,
  ``mem.migration.cascade_pages``) may grow by at most ``TOLERANCE``
  and may fall freely.  Counts are exact for a seed, so any growth
  means the code does more calls, not that the machine was noisy.

Usage::

    python3 perfbench/bench.py --out run.json
    python -m repro.analysis.trajectory --current run.json [run2.json ...] \\
        [--out delta.txt] [--save-point benchmarks/BENCH_<pr>.json]
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import statistics
import sys
from typing import Any, Dict, List, Optional, Tuple

from repro.analysis.tables import format_table

#: Point layout version understood by this radar.
FORMAT = 2
#: Allowed normalised-throughput drop and count growth (fraction).
TOLERANCE = 0.20
#: The same trace replayed with and without ``macro_batch`` fusion.
FUSED, UNFUSED = "replay_macro", "replay_small_batches"
THROUGHPUT = "accesses_per_sec"
#: Coalescer gate: ``UNFUSED`` over ``FUSED`` of this exact per-layer
#: count must reach ``COALESCER_MIN``.  The engine calls the TLB once
#: per batch, so the ratio is the number of 1k-access events fused into
#: one batch: 262144 / 1024 = 256 at most, ~255 with the alloc/free
#: barriers (9930 / 39 in ``BENCH_16``), and ~1 when fusion breaks.  The
#: gate asks that fusion reach half its target.  A throughput ratio
#: would also move with how fast small batches run, so a faster unfused
#: path could fail it with the coalescer intact.
COALESCER_CALLS = "mem.tlb.access_substream.calls"
COALESCER_MIN = 128.0
#: Run settings two points must share to be comparable.
CONFIG_KEYS = ("seed", "smoke")

_BENCH_RE = re.compile(r"^BENCH_(\d+)\.json$")
_REPO = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__)))))


def default_bench_dir() -> str:
    """The repo's committed ``benchmarks/`` directory."""
    return os.path.join(_REPO, "benchmarks")


def declared_units() -> Dict[str, str]:
    """``{metric: unit}`` for every metric ``BENCHMARK.json`` declares."""
    with open(os.path.join(_REPO, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    return {spec["name"]: spec["unit"]
            for spec in declared["end_to_end"] + declared["per_layer"]}


def reduce_runs(runs: List[Dict[str, Any]]) -> Dict[str, Any]:
    """``perfbench/bench.py --out`` documents of one seed reduced to a
    point.

    Keeps each declared metric's median per workload, and its median
    over the runs when there are several: a committed point taken from
    several runs carries less of one run's noise.  A metric the runs did
    not report (``--trace 0`` reports no per-layer metrics) is left out,
    and the radar reports it missing.  Raises ``ValueError`` when a
    metric's unit differs from its declaration or the runs' settings
    differ.
    """
    configs = {tuple(run["args"][key] for key in CONFIG_KEYS)
               for run in runs}
    if len(configs) != 1:
        raise ValueError(f"runs differ in {CONFIG_KEYS}: {sorted(configs)}")
    units = declared_units()
    samples: Dict[str, Dict[str, List[float]]] = {}
    for run in runs:
        for doc in run["workloads"]:
            values = samples.setdefault(doc["workload"], {})
            for name, unit in units.items():
                row = doc["metrics"].get(name)
                if row is None:
                    continue
                if row["unit"] != unit:
                    raise ValueError(f"{doc['workload']}.{name}: unit "
                                     f"{row['unit']!r} != declared {unit!r}")
                values.setdefault(name, []).append(row["value"])
    point: Dict[str, Any] = dict(zip(CONFIG_KEYS, configs.pop()))
    point.update(format=FORMAT, runs=len(runs))
    point["workloads"] = {
        workload: {name: statistics.median(v) for name, v in values.items()}
        for workload, values in samples.items()
    }
    return point


def load_point(paths: List[str]) -> Dict[str, Any]:
    """A point from ``paths``: one committed point as is, or perfbench
    runs reduced by :func:`reduce_runs`."""
    docs = []
    for path in paths:
        with open(path) as fh:
            docs.append(json.load(fh))
    if len(docs) == 1 and docs[0].get("format") == FORMAT:
        return docs[0]
    return reduce_runs(docs)


def load_history(bench_dir: Optional[str] = None
                 ) -> List[Tuple[int, Dict[str, Any]]]:
    """All committed ``BENCH_<n>.json`` points as ``[(n, doc), ...]``,
    sorted."""
    bench_dir = bench_dir or default_bench_dir()
    points = []
    for name in os.listdir(bench_dir):
        match = _BENCH_RE.match(name)
        if not match:
            continue
        with open(os.path.join(bench_dir, name)) as fh:
            points.append((int(match.group(1)), json.load(fh)))
    points.sort()
    return points


def normalized(doc: Dict[str, Any]) -> Dict[str, float]:
    """Per-workload throughput divided by the geometric mean over the
    point's workloads.

    A drop in one workload of four moves the mean too, so it reads as
    its 3/4 power: 25% down reads as 19%, and the 20% gate catches a
    single drop beyond 26%.  Dividing by the other workloads only would
    read the drop in full but pass more of their run-to-run swings into
    it: on a shared 2-vCPU machine, 10 of 56 pairs of runs of the same
    code tripped the gate that way, against 2 of 56 this way.
    """
    logs = {name: math.log(metrics[THROUGHPUT])
            for name, metrics in doc["workloads"].items()
            if THROUGHPUT in metrics}
    mean = sum(logs.values()) / len(logs) if logs else 0.0
    return {name: math.exp(log - mean) for name, log in logs.items()}


def headline_ratio(doc: Dict[str, Any]) -> float:
    """``FUSED`` over ``UNFUSED`` throughput (a trend line, not gated)."""
    workloads = doc["workloads"]
    return (float(workloads[FUSED][THROUGHPUT])
            / float(workloads[UNFUSED][THROUGHPUT]))


def coalescer_ratio(doc: Dict[str, Any]) -> float:
    """``UNFUSED`` over ``FUSED`` TLB substream calls (the gate)."""
    workloads = doc["workloads"]
    fused = float(workloads[FUSED][COALESCER_CALLS])
    unfused = float(workloads[UNFUSED][COALESCER_CALLS])
    return unfused / fused if fused else 0.0


def compare_docs(old: Dict[str, Any], new: Dict[str, Any],
                 tolerance: float = TOLERANCE) -> Dict[str, Any]:
    """Gate point ``new`` against the committed point ``old``.

    Returns ``{rows, failures, ok, headline_ratio, coalescer_ratio}``:
    ``rows`` holds one throughput row per workload, ready for
    :func:`format_report`; ``failures`` lists human-readable reasons.
    """
    report: Dict[str, Any] = {"rows": [], "failures": [],
                              "headline_ratio": None,
                              "coalescer_ratio": None}
    failures = report["failures"]
    mismatched = [key for key in CONFIG_KEYS if old.get(key) != new.get(key)]
    if mismatched:
        failures.append(
            "config mismatch: " + ", ".join(
                f"{key} {old.get(key)!r} committed, {new.get(key)!r} now"
                for key in mismatched))
        report["ok"] = False
        return report

    units = declared_units()
    for workload, metrics in sorted(old["workloads"].items()):
        current = new["workloads"].get(workload)
        if current is None:
            failures.append(f"{workload}: missing from the current point")
            continue
        for name in sorted(metrics):
            if name not in current:
                failures.append(f"{workload}.{name}: missing from the "
                                "current point")
            elif (units.get(name) == "count"
                  and current[name] > metrics[name] * (1 + tolerance)):
                failures.append(
                    f"{workload}.{name}: count {current[name]:g} above "
                    f"ceiling {metrics[name] * (1 + tolerance):g}")

    old_norm, new_norm = normalized(old), normalized(new)
    for workload in sorted(old_norm):
        if workload not in new_norm:
            continue
        floor = old_norm[workload] * (1 - tolerance)
        regressed = new_norm[workload] < floor
        report["rows"].append({
            "workload": workload,
            "old": old_norm[workload],
            "new": new_norm[workload],
            "delta_pct": (new_norm[workload] / old_norm[workload] - 1) * 100,
            "floor": floor,
            "status": "REGRESSED" if regressed else "ok",
        })
        if regressed:
            failures.append(
                f"{workload}: normalised throughput "
                f"{new_norm[workload]:.2f} below floor {floor:.2f}")

    if FUSED in new_norm and UNFUSED in new_norm:
        report["headline_ratio"] = headline_ratio(new)
    workloads = new["workloads"]
    if all(COALESCER_CALLS in workloads.get(name, {})
           for name in (FUSED, UNFUSED)):
        ratio = report["coalescer_ratio"] = coalescer_ratio(new)
        if ratio < COALESCER_MIN:
            failures.append(f"coalescer {UNFUSED}/{FUSED} {COALESCER_CALLS} "
                            f"ratio {ratio:.2f}x below {COALESCER_MIN:g}x")
    else:
        failures.append(f"coalescer {UNFUSED}/{FUSED}: {COALESCER_CALLS} "
                        "missing from the current point")
    report["ok"] = not failures
    return report


def format_report(report: Dict[str, Any]) -> str:
    """Human-readable delta table + coalescer ratios + failure lines."""
    lines = []
    if report["rows"]:
        lines.append(format_table(
            ["workload", "committed", "current", "delta %", "floor",
             "status"],
            [
                [row["workload"], f"{row['old']:.2f}", f"{row['new']:.2f}",
                 f"{row['delta_pct']:+.1f}", f"{row['floor']:.2f}",
                 row["status"]]
                for row in report["rows"]
            ],
            title="normalised throughput vs committed trajectory",
        ))
    if report["headline_ratio"] is not None:
        lines.append(f"throughput {FUSED}/{UNFUSED}: "
                     f"{report['headline_ratio']:.2f}x (trend, not gated)")
    if report["coalescer_ratio"] is not None:
        lines.append(f"coalescer {UNFUSED}/{FUSED} {COALESCER_CALLS}: "
                     f"{report['coalescer_ratio']:.2f}x "
                     f"(target >= {COALESCER_MIN:g}x)")
    for failure in report["failures"]:
        lines.append(f"FAIL: {failure}")
    if report["ok"]:
        lines.append("radar: no regression beyond tolerance")
    return "\n".join(lines)


def trend_table(history: List[Tuple[int, Dict[str, Any]]]) -> str:
    """Normalised per-workload throughput across the committed history."""
    if not history:
        return "(no committed BENCH_*.json history)"
    norms = [normalized(doc) for _, doc in history]
    workloads = sorted({name for norm in norms for name in norm})
    rows = [[name] + [f"{norm[name]:.2f}" if name in norm else "-"
                      for norm in norms]
            for name in workloads]
    return format_table(
        ["workload"] + [f"PR {n}" for n, _ in history], rows,
        title="normalised throughput trajectory (per committed point)",
    )


def radar(current_paths: List[str], bench_dir: Optional[str] = None,
          tolerance: float = TOLERANCE, out_path: Optional[str] = None,
          point_path: Optional[str] = None) -> int:
    """CI entry: the current run vs the newest committed point.

    Prints the trend across all committed points plus the delta report;
    writes the same text to ``out_path`` and the reduced current point
    to ``point_path`` when given.  Returns a process exit code (0 ok,
    1 regression / no history).
    """
    current = load_point(current_paths)
    history = load_history(bench_dir)
    if point_path:  # after loading, so a new point meets its predecessor
        with open(point_path, "w") as fh:
            json.dump(current, fh, indent=2, sort_keys=True)
            fh.write("\n")
    text_parts = [trend_table(history)]
    if not history:
        text_parts.append("FAIL: no committed BENCH_*.json to compare "
                          "against")
        code = 1
    else:
        report = compare_docs(history[-1][1], current, tolerance=tolerance)
        text_parts.append(format_report(report))
        code = 0 if report["ok"] else 1
    text = "\n\n".join(text_parts)
    print(text)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Perf-regression radar: a perfbench run vs the "
                    "committed BENCH_*.json points",
    )
    parser.add_argument("--current", required=True, nargs="+",
                        metavar="RUN",
                        help="perfbench/bench.py --out document(s) of one "
                             "seed (or one reduced point) to vet")
    parser.add_argument("--out", default=None,
                        help="also write the report text to this path")
    parser.add_argument("--save-point", default=None, metavar="PATH",
                        help="write the reduced current point here "
                             "(e.g. benchmarks/BENCH_<pr>.json)")
    args = parser.parse_args(argv)
    return radar(args.current, out_path=args.out, point_path=args.save_point)


if __name__ == "__main__":
    sys.exit(main())
