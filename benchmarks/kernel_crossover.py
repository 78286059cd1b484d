"""Crossover sweep: the scalar and vectorized path of each hot kernel,
timed over a ladder of batch sizes.

The two paths of every kernel in :mod:`repro.kernels` are bit-identical,
so the default mode picks one per call by input size.  This script
measures where each kernel's crossover lies, on streams cut from the
silo trace that ``perfbench/``'s replay workloads record
(``record_bench.TRACE_SCALE``, 1k-access events, ``macro_batch=0``):

* **fold**: ``fold_samples_scalar`` vs ``fold_samples_vectorized`` on
  runs of the replay's PEBS samples, each folded into a copy of the
  ksampled state the replay ended with;
* **tlb 64-set** / **tlb 8-set**: ``lru_loop`` vs ``lru_batch`` on
  runs of the replay's 4K and 2M TLB substreams, from the state the
  preceding lookups left; and the same on the 2M substream of a live
  ``phaseflip`` memtis run on the 3-tier preset (``perfbench/``'s zoo
  workload), whose huge-page bursts the batch path collapses;
* **interleave**: ``rng.permutation`` plus ``take`` vs the packed
  in-place shuffle, inside the replay at fused batch sizes of 1k-64k
  accesses (``macro_batch``) with each path pinned by
  ``PERMUTE_CROSSOVER``, and alone on runs of the trace's accesses;
* **fusion**: ``_fuse_reference`` vs ``_fuse_staged`` over k of the
  trace's 1k-access events.

For each kernel it prints the median time per call of both paths at
every rung, and the crossover: the smallest rung from which the
vectorized path wins at every larger rung.  ``FOLD_CROSSOVER``,
``LRU_BATCH_CROSSOVER`` and ``PERMUTE_CROSSOVER`` cite this sweep.
Timings are host wall clock, so run it on a quiet machine.

Usage::

    PYTHONPATH=src python benchmarks/kernel_crossover.py [--reps 31]
    PYTHONPATH=src python benchmarks/kernel_crossover.py --smoke
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import tempfile
import time
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from record_bench import SEED, TRACE_EVENT_ACCESSES, TRACE_SCALE  # noqa: E402
from repro import kernels  # noqa: E402
from repro.kernels.sample_fold import (  # noqa: E402
    FOLD_CROSSOVER,
    fold_samples_scalar,
    fold_samples_vectorized,
)
from repro.kernels.tlb_lru import (  # noqa: E402
    LRU_BATCH_CROSSOVER,
    lru_batch,
    lru_loop,
)
from repro.mem.pages import vpn_to_hpn  # noqa: E402
from repro.mem.tlb import TLBConfig  # noqa: E402
from repro.policies.registry import make_policy  # noqa: E402
from repro.pebs.events import AccessBatch  # noqa: E402
from repro.sim.engine import PERMUTE_CROSSOVER, Simulation  # noqa: E402
from repro.sim.machine import DEFAULT_SCALE, MachineSpec, ScaleSpec  # noqa: E402
from repro.sim.runner import RunSpec  # noqa: E402
from repro.workloads.registry import make_workload  # noqa: E402
from repro.workloads.trace import TraceWorkload, record_trace  # noqa: E402

MIB = 1024 * 1024
#: ``--smoke`` inputs: checks the script end to end in seconds.
SMOKE_SCALE = ScaleSpec(bytes_per_paper_gb=1 * MIB,
                        accesses_per_paper_gb=2_000,
                        min_bytes=48 * MIB, min_accesses_per_page=10)

FOLD_LADDER = (1, 2, 4, 8, 16, 24, 32, 48, 64, 96, 128, 256, 1024)
TLB_LADDER_PER_SET = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)
FUSION_LADDER = (1, 2, 3, 4, 8, 16, 64, 256)
#: Fused batch sizes of the in-engine interleave sweep (0: 1k events).
INTERLEAVE_MACRO_BATCHES = (0, 4096, 16384, 65536)
INTERLEAVE_LADDER = (256, 1024, 4096, 8192, 16384, 32768, 65536, 262144)


class Capture:
    """The kernel inputs one replay produced, in call order."""

    def __init__(self) -> None:
        self.samples: List[np.ndarray] = []
        self.tags_4k: List[np.ndarray] = []
        self.tags_2m: List[np.ndarray] = []
        self.events: List[Tuple[list, list]] = []


def _capture_tlb(sim: Simulation, cap: Capture) -> None:
    access = sim.tlb.access_substream

    def access_substream(vpns, is_huge):
        huge = np.asarray(is_huge, dtype=bool)
        cap.tags_4k.append(vpns[~huge].copy())
        cap.tags_2m.append(vpn_to_hpn(vpns[huge]))
        return access(vpns, is_huge)

    sim.tlb.access_substream = access_substream


def _replay_sim(path: str, macro_batch: int = 0) -> Simulation:
    workload = TraceWorkload(path, event_accesses=TRACE_EVENT_ACCESSES)
    machine = MachineSpec.from_ratio(workload.total_bytes, ratio="1:8")
    return Simulation(workload, make_policy("memtis"), machine, seed=SEED,
                      macro_batch=macro_batch)


def capture_replay(scale: ScaleSpec, max_accesses: int, workdir: str):
    """Record the silo trace into ``workdir`` and replay it at
    ``macro_batch=0``, recording every fold batch, TLB substream and
    (the first) event parts; returns the capture and the replay's
    ksampled."""
    path = os.path.join(workdir, "trace.npz")
    record_trace(make_workload("silo", scale), path, seed=SEED)
    sim = _replay_sim(path)
    cap = Capture()
    ks = sim.policy.ksampled
    fold, resolve = ks.process_samples, sim._resolve_parts

    def process_samples(samples):
        cap.samples.append(samples.vpn.copy())
        return fold(samples)

    def resolve_parts(event):
        regions, rels = resolve(event)
        if len(cap.events) < max(FUSION_LADDER):
            cap.events.append((regions, rels))
        return regions, rels

    ks.process_samples = process_samples
    _capture_tlb(sim, cap)
    sim._resolve_parts = resolve_parts
    sim.run(max_accesses=max_accesses)
    return cap, ks


def capture_zoo(scale: ScaleSpec) -> Capture:
    """TLB substreams of a live ``phaseflip`` memtis run on the 3-tier
    preset, as ``perfbench/``'s zoo workload runs it."""
    sim = RunSpec("phaseflip", "memtis", scale=scale, seed=SEED,
                  machine_preset="dram-cxl-nvm").build()
    cap = Capture()
    _capture_tlb(sim, cap)
    sim.run()
    return cap


def _timed(fn: Callable[[], object]) -> float:
    start = time.perf_counter_ns()
    fn()
    return (time.perf_counter_ns() - start) / 1e3


def _cycle(stream: np.ndarray, start: int, n: int) -> np.ndarray:
    """``n`` items of ``stream`` from ``start``, wrapping around."""
    idx = (start + np.arange(n)) % len(stream)
    return stream[idx]


def sweep_fold(cap: Capture, ks, ladder: Sequence[int], reps: int):
    stream = np.concatenate(cap.samples)
    state, params = ks.fold_inputs()
    rows = []
    for n in ladder:
        scalar, vector = [], []
        for rep in range(reps):
            chunk = _cycle(stream, rep * n, n)
            a, b = state.clone(), state.clone()
            scalar.append(_timed(
                lambda: fold_samples_scalar(a, chunk, params)))
            vector.append(_timed(
                lambda: fold_samples_vectorized(b, chunk, params)))
        rows.append((n, statistics.median(scalar), statistics.median(vector)))
    return rows


def sweep_tlb(stream: np.ndarray, num_sets: int, ways: int,
              ladder_per_set: Sequence[int], reps: int):
    """Both TLB paths from the same lists on consecutive runs of
    ``stream``; each run continues from the state the last one left."""
    sets: List[List[int]] = [[] for _ in range(num_sets)]
    rows, pos = [], 0
    for per_set in ladder_per_set:
        n = per_set * num_sets
        scalar, vector = [], []
        for _ in range(reps):
            chunk = _cycle(stream, pos, n)
            pos += n
            batched = [list(row) for row in sets]
            scalar.append(_timed(lambda: lru_loop(sets, ways, chunk)))
            vector.append(_timed(lambda: lru_batch(batched, ways, chunk)))
            if sets != batched:
                raise AssertionError("TLB paths diverged")
        rows.append((n, statistics.median(scalar), statistics.median(vector)))
    return rows


def sweep_interleave_in_engine(path: str, macro_batches: Sequence[int],
                               max_accesses: int, reps: int):
    """Median time of one ``_interleave`` call inside the silo replay,
    per fused batch size (``macro_batch``), with every call on the
    permutation (scalar) or the packed shuffle (vector), pinned through
    ``PERMUTE_CROSSOVER``; the two alternate ``reps`` times."""
    from repro.sim import engine

    rows = []
    saved = engine.PERMUTE_CROSSOVER
    try:
        for macro_batch in macro_batches:
            times: dict = {"scalar": [], "vector": []}
            for _ in range(reps):
                for variant, cross in (("scalar", 1 << 62), ("vector", 0)):
                    engine.PERMUTE_CROSSOVER = cross
                    sim = _replay_sim(path, macro_batch)
                    interleave = sim._interleave

                    def timed(*args, _times=times[variant],
                              _call=interleave):
                        start = time.perf_counter_ns()
                        out = _call(*args)
                        _times.append(time.perf_counter_ns() - start)
                        return out

                    sim._interleave = timed
                    sim.run(max_accesses=max_accesses)
            rows.append((macro_batch or TRACE_EVENT_ACCESSES,
                         statistics.median(times["scalar"]) / 1e3,
                         statistics.median(times["vector"]) / 1e3))
    finally:
        engine.PERMUTE_CROSSOVER = saved
    return rows


def sweep_interleave(cap: Capture, ladder: Sequence[int], reps: int):
    """``rng.permutation`` + ``take`` (scalar) vs the packed in-place
    shuffle (vectorized) on runs of the trace's accesses; both from the
    same RNG state, checked equal."""
    rels = [b for _, bs in cap.events for b in bs]
    vpns = np.concatenate([b.vpn for b in rels])
    stores = np.concatenate([b.is_store for b in rels])
    rows = []
    for n in ladder:
        if n > len(vpns):
            break
        scalar, vector = [], []
        for rep in range(reps):
            lo = (rep * n) % (len(vpns) - n + 1)
            outs = []
            for mode, times in ((kernels.SCALAR, scalar),
                                (kernels.VECTORIZED, vector)):
                rng = np.random.default_rng(rep)
                batch = AccessBatch(vpns[lo:lo + n].copy(),
                                    stores[lo:lo + n].copy())
                with kernels.forced(mode):
                    times.append(_timed(lambda: outs.append(
                        Simulation._interleave(batch, True, True, rng))))
                outs.append(rng.bit_generator.state)
            if not (np.array_equal(outs[0].vpn, outs[2].vpn)
                    and outs[1] == outs[3]):
                raise AssertionError("interleave paths diverged")
        rows.append((n, statistics.median(scalar), statistics.median(vector)))
    return rows


def sweep_fusion(cap: Capture, ladder: Sequence[int], reps: int):
    regions = [r for regs, _ in cap.events for r in regs]
    rels = [b for _, bs in cap.events for b in bs]
    rows = []
    for k in ladder:
        if k > len(rels):
            break
        scalar, vector = [], []
        for rep in range(reps):
            lo = (rep * k) % (len(rels) - k + 1)
            part_regions, part_rels = regions[lo:lo + k], rels[lo:lo + k]
            scalar.append(_timed(lambda: Simulation._fuse_reference(
                part_regions, part_rels)))
            vector.append(_timed(lambda: Simulation._fuse_staged(
                part_regions, part_rels)))
        rows.append((k, statistics.median(scalar), statistics.median(vector)))
    return rows


def crossover(rows) -> Optional[int]:
    """Smallest rung from which the vectorized path wins at every rung."""
    best = None
    for n, scalar, vector in reversed(rows):
        if vector >= scalar:
            break
        best = n
    return best


def format_rows(title: str, unit: str, rows, per: int = 1,
                constant: str = "") -> str:
    lines = [title,
             f"  {unit:>9} {'per set' if per > 1 else '':>8} "
             f"{'scalar us':>11} {'vector us':>11} {'vec/sc':>7}  faster"]
    for n, scalar, vector in rows:
        per_set = f"{n // per}" if per > 1 else ""
        lines.append(
            f"  {n:>9} {per_set:>8} {scalar:>11.1f} {vector:>11.1f} "
            f"{vector / scalar:>7.2f}  "
            f"{'vectorized' if vector < scalar else 'scalar'}")
    cross = crossover(rows)
    found = ("none in the ladder" if cross is None
             else f"{cross}" + (f" ({cross // per} per set)" if per > 1
                                else ""))
    lines.append(f"  crossover: {found}{constant}")
    return "\n".join(lines)


def _call_sizes(chunks: List[np.ndarray], unit: str) -> str:
    sizes = [len(c) for c in chunks if len(c)]
    if not sizes:
        return "no calls"
    return (f"{len(sizes)} calls, median {statistics.median(sizes):g}, "
            f"max {max(sizes)} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--reps", type=int, default=31,
                        help="timed calls per path and rung (median kept)")
    parser.add_argument("--accesses", type=int, default=2_000_000,
                        help="trace accesses replayed to capture streams")
    parser.add_argument("--smoke", action="store_true",
                        help="small trace, short ladders, 3 reps")
    args = parser.parse_args(argv)
    scale, reps, accesses = ScaleSpec(**TRACE_SCALE), args.reps, args.accesses
    fold_ladder, tlb_ladder = FOLD_LADDER, TLB_LADDER_PER_SET
    fusion_ladder = FUSION_LADDER
    interleave_ladder, engine_reps = INTERLEAVE_LADDER, 3
    macro_batches = INTERLEAVE_MACRO_BATCHES
    if args.smoke:
        scale, reps, accesses = SMOKE_SCALE, 3, 200_000
        fold_ladder, tlb_ladder = (4, 64, 256), (2, 16, 64)
        fusion_ladder = (1, 4)
        interleave_ladder, macro_batches, engine_reps = (1024, 4096), (0,), 1

    with tempfile.TemporaryDirectory() as tmp:
        cap, ks = capture_replay(scale, accesses, tmp)
        interleave_in_engine = sweep_interleave_in_engine(
            os.path.join(tmp, "trace.npz"), macro_batches,
            min(accesses, 1_000_000), engine_reps)
    zoo = capture_zoo(SMOKE_SCALE if args.smoke else DEFAULT_SCALE)
    config = TLBConfig()
    print(f"captured from a {accesses:,}-access silo replay "
          f"(macro_batch=0, {TRACE_EVENT_ACCESSES}-access events):")
    print(f"  fold: {_call_sizes(cap.samples, 'samples')}")
    print(f"  tlb 4K: {_call_sizes(cap.tags_4k, 'lookups')}")
    print(f"  tlb 2M: {_call_sizes(cap.tags_2m, 'lookups')}")
    print("and from a live phaseflip memtis run (dram-cxl-nvm):")
    print(f"  tlb 4K: {_call_sizes(zoo.tags_4k, 'lookups')}")
    print(f"  tlb 2M: {_call_sizes(zoo.tags_2m, 'lookups')}")
    print(f"timings: median of {reps} calls per path and rung\n")

    print(format_rows(
        "fold (samples per call)", "samples",
        sweep_fold(cap, ks, fold_ladder, reps),
        constant=f"; FOLD_CROSSOVER = {FOLD_CROSSOVER}"))
    const = f"; LRU_BATCH_CROSSOVER = {LRU_BATCH_CROSSOVER} per set"
    tlb_crossovers: List[float] = []
    for source, label, chunks, entries in (
            ("silo trace", "4K", cap.tags_4k, config.entries_4k),
            ("silo trace", "2M", cap.tags_2m, config.entries_2m),
            ("live phaseflip", "2M", zoo.tags_2m, config.entries_2m)):
        num_sets = entries // config.ways
        title = (f"tlb {num_sets}-set {config.ways}-way "
                 f"({source}, {label} substream)")
        stream = np.concatenate(chunks) if chunks else np.empty(0, np.int64)
        print()
        if not len(stream):
            print(f"{title}: no lookups captured")
            continue
        rows = sweep_tlb(stream, num_sets, config.ways, tlb_ladder, reps)
        print(format_rows(title, "lookups", rows, per=num_sets,
                          constant=const))
        per_set = [(n // num_sets, sc, vec) for n, sc, vec in rows]
        cross = crossover(per_set)
        tlb_crossovers.append(float("inf") if cross is None else cross)
    if tlb_crossovers:
        worst = max(tlb_crossovers)
        found = ("at no rung" if worst == float("inf")
                 else f"from {worst:g} lookups per set")
        print(f"\ntlb: the batch path wins on every stream {found}{const}")
    const = f"; PERMUTE_CROSSOVER = {PERMUTE_CROSSOVER}"
    print()
    print(format_rows(
        "interleave: permutation + take (scalar) vs packed shuffle "
        "(vector), inside the silo replay by fused batch size, median "
        f"call of {engine_reps} alternating runs per path", "accesses",
        interleave_in_engine, constant=const))
    print()
    print(format_rows(
        "interleave: permutation + take (scalar) vs packed shuffle "
        "(vector), alone on runs of the trace's accesses", "accesses",
        sweep_interleave(cap, interleave_ladder, reps), constant=const))
    print()
    print(format_rows("fusion (1k-access events per batch)", "events",
                      sweep_fusion(cap, fusion_ladder, reps)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
