"""Set-associative LRU simulation kernel for the TLB (scalar + batched).

A TLB array is a list of per-set tag lists, most-recently-used first.
A lookup stream runs through it one of two bit-identical ways:

* :func:`lru_loop` -- the reference: one lookup at a time (hit:
  move to front; miss: insert at front, evicting the LRU tag of a full
  set);
* :func:`lru_batch` -- the batched path:

  1. **group by set** -- a stable argsort on ``tag % num_sets``
     partitions the stream into per-set subsequences whose internal
     order is preserved; sets are independent, so replaying them set by
     set is state- and count-identical to the original order;
  2. **collapse consecutive same-tag runs** -- a repeated tag with no
     intervening access to the same set is a guaranteed hit that leaves
     the LRU state unchanged, so only the first lookup of each run is
     replayed and the rest are counted as hits outright;
  3. **replay** the surviving lookups through :func:`lru_loop`.

The batch path pays a fixed numpy cost per call and saves the replay
of every collapsed lookup, so it wins only on long, bursty streams.
:func:`lru_access` picks by the stream's length per set
(:data:`LRU_BATCH_CROSSOVER`).

The survivors replay one at a time rather than in lockstep numpy rounds
over all sets: one round costs as much as replaying over a hundred
lookups, more than the TLB has sets (DESIGN.md §5).
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro import kernels

#: In lookups per set: a stream at least this long per set takes
#: :func:`lru_batch`, a shorter one :func:`lru_loop`.  Measured by
#: ``benchmarks/kernel_crossover.py``: below ~8 per set the loop wins
#: everywhere (2-4x at 1 per set); on the live zoo's bursty 2M substream
#: the batch path wins from 16 per set and is ~2x faster at 64; on the
#: silo trace's substreams the two stay within ~10% of each other from
#: 16-64 per set on.  64 is where the batch path is at least even on
#: every stream measured.
LRU_BATCH_CROSSOVER = 64


def lru_loop(sets: List[List[int]], ways: int,
             tag_stream: np.ndarray) -> Tuple[int, int]:
    """Reference path: every lookup in stream order; ``(hits, misses)``."""
    num_sets = len(sets)
    hits = 0
    for tag in np.asarray(tag_stream).tolist():
        row = sets[tag % num_sets]
        # Membership test up front: misses dominate small TLBs and an
        # exception per miss costs more than a 4-element scan.
        if tag in row:
            row.remove(tag)  # a tag appears at most once per set
            hits += 1
        elif len(row) >= ways:
            row.pop()
        row.insert(0, tag)
    return hits, len(tag_stream) - hits


def lru_batch(sets: List[List[int]], ways: int,
              tag_stream: np.ndarray) -> Tuple[int, int]:
    """Batched path: set-grouped, run-collapsed replay; ``(hits, misses)``.

    Tags must be non-negative.
    """
    n = len(tag_stream)
    if n == 0:
        return 0, 0
    tag_stream = np.asarray(tag_stream, dtype=np.int64)
    grouped = tag_stream[np.argsort(tag_stream % len(sets), kind="stable")]
    # Keep the first lookup of each same-tag run (a tag fixes its set);
    # the rest are hits with no state change.
    keep = np.ones(n, dtype=bool)
    np.not_equal(grouped[1:], grouped[:-1], out=keep[1:])
    hits, _ = lru_loop(sets, ways, grouped[keep])
    hits += n - int(np.count_nonzero(keep))
    return hits, n - hits


def lru_access(sets: List[List[int]], ways: int,
               tag_stream: np.ndarray) -> Tuple[int, int]:
    """Run ``tag_stream`` through ``sets`` in place on the path the
    kernel mode picks for its length per set; ``validate`` runs both
    and asserts identical counts and lists."""
    path = kernels.path_for(len(tag_stream), LRU_BATCH_CROSSOVER * len(sets))
    if path == kernels.SCALAR:
        return lru_loop(sets, ways, tag_stream)
    if path == kernels.VECTORIZED:
        return lru_batch(sets, ways, tag_stream)
    shadow = [list(row) for row in sets]
    ref = lru_loop(shadow, ways, tag_stream)
    got = lru_batch(sets, ways, tag_stream)
    if got != ref:
        raise AssertionError(f"TLB kernel mismatch: batch {got} != loop {ref}")
    if sets != shadow:
        raise AssertionError("TLB kernel state mismatch")
    return got
