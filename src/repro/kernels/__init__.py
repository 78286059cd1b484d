"""Hot-path kernel dispatch: vectorized numpy kernels vs scalar loops.

The simulator's hot loops (ksampled sample folding, TLB lookup
simulation, batch fusion) each exist in two exact-equivalent
implementations:

* **vectorized**: batched numpy kernels, fast on large inputs;
* **scalar**: the original per-element Python loops, fast on small
  inputs (numpy's fixed cost per call dominates there) and kept as the
  executable specification the kernels are checked against.

Both produce bit-identical simulation state; the differential tests in
``tests/test_kernels_differential.py`` enforce this on randomized
streams and on full end-to-end runs.  So choosing between them per
call cannot change a result, and by default each call picks by size.

Mode selection (``REPRO_SCALAR_KERNELS``):

==================  ================  =================================
environment         ``active_mode``   path each call takes
==================  ================  =================================
unset / ``0``       ``auto``          by input size: scalar below the
                                      kernel's crossover, vectorized at
                                      or above it (default)
``vectorized``      ``vectorized``    numpy at every size
``1`` (any other)   ``scalar``        the per-element loop
``validate``        ``validate``      both, asserting identical state
                                      (slow; a debugging aid)
==================  ================  =================================

Each kernel module owns its crossover (``FOLD_CROSSOVER`` in
:mod:`~repro.kernels.sample_fold`, ``LRU_BATCH_CROSSOVER`` in
:mod:`~repro.kernels.tlb_lru`), measured by
``benchmarks/kernel_crossover.py``.  Tests can pin a mode for a code
region regardless of the environment with the :func:`forced` context
manager; the pinned ``vectorized`` and ``scalar`` modes keep the
differential tests comparing both paths at every size.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator, Optional

#: Mode names (see the table above).
AUTO = "auto"
VECTORIZED = "vectorized"
SCALAR = "scalar"
VALIDATE = "validate"

_MODES = (AUTO, VECTORIZED, SCALAR, VALIDATE)

_forced: Optional[str] = None


def active_mode() -> str:
    """Resolve the kernel mode for this call (forced > environment)."""
    if _forced is not None:
        return _forced
    env = os.environ.get("REPRO_SCALAR_KERNELS", "").strip().lower()
    if env in ("", "0", "false"):
        return AUTO
    if env in (VECTORIZED, VALIDATE):
        return env
    return SCALAR


def path_for(size: int, crossover: int) -> str:
    """The path one kernel call on ``size`` elements takes.

    ``auto`` resolves to ``scalar`` below ``crossover`` and to
    ``vectorized`` at or above it; the other modes are pinned.
    """
    mode = active_mode()
    if mode != AUTO:
        return mode
    return SCALAR if size < crossover else VECTORIZED


@contextmanager
def forced(mode: str) -> Iterator[None]:
    """Pin the kernel mode within a ``with`` block (tests/benchmarks)."""
    if mode not in _MODES:
        raise ValueError(f"unknown kernel mode {mode!r}; expected {_MODES}")
    global _forced
    prev = _forced
    _forced = mode
    try:
        yield
    finally:
        _forced = prev
