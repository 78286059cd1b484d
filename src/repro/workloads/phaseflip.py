"""Phase-flip microbenchmark: the hot set jumps to a disjoint range.

Not one of the paper's Table 2 benchmarks -- a synthetic adversary for
the head-to-head study (``repro.experiments.headtohead``).  The access
stream is zipfian over a *rotating* hot window: the working set stays
skewed and DRAM-sized throughout, but at each phase boundary the hot
window jumps to a disjoint slice of the region, instantly invalidating
every hotness estimate a policy has accumulated.

What it separates:

* adaptive policies (ARMS) should detect the distribution drift and
  dump stale state, re-converging within a fraction of a phase;
* admission-controlled promotion (TierBPF) mispredicts hardest right
  after a flip, when the new hot pages have short histories;
* slow-decaying counters (HeMem-style cooling, sketches) keep serving
  the *previous* phase's hot set from DRAM while the new one faults
  from the slow tier.

Phases divide the access budget evenly; ``flips = 3`` yields four
phases touching four disjoint windows (window stride wraps around the
region, so any ``flips`` works at any size).
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.pebs.events import AccessBatch
from repro.workloads.base import AccessEvent, AllocEvent, Workload
from repro.workloads.distributions import ZipfSampler, chunked


class PhaseFlipWorkload(Workload):
    """Zipfian accesses over a hot window that jumps at phase boundaries."""

    name = "phaseflip"
    paper_rss_gb = 8.0
    paper_rhp = 1.0
    description = "Synthetic phase-change adversary (hot set flips)"
    needs_bounds_check = False

    ZIPF_ALPHA = 0.99
    #: Fraction of the region a single phase's hot window covers.
    WINDOW_FRACTION = 0.25

    def __init__(self, total_bytes: int, total_accesses: int,
                 flips: int = 3, **kwargs):
        super().__init__(total_bytes, total_accesses, **kwargs)
        if flips < 0:
            raise ValueError("flips must be >= 0")
        self.flips = int(flips)

    def events(self, rng: np.random.Generator) -> Iterator[object]:
        yield AllocEvent("heap", self.total_bytes, thp=True)

        region_pages = self._pages(self.total_bytes)
        window_pages = max(1, int(region_pages * self.WINDOW_FRACTION))
        zipf = ZipfSampler(window_pages, alpha=self.ZIPF_ALPHA)
        phases = self.flips + 1
        per_phase = self.total_accesses // phases

        emitted = 0
        for phase in range(phases):
            # Disjoint windows while they fit, wrapping afterwards; the
            # offset interleave keeps rank 0 (the hottest page) far from
            # the previous phase's hot head even after a wrap.
            base = (phase * window_pages) % region_pages
            budget = (
                per_phase if phase < phases - 1
                else self.total_accesses - emitted
            )
            for n in chunked(budget, self.batch_size):
                # base + rank < 2 * region_pages, so one subtraction
                # wraps it; numpy's % cost as much as the Zipf draw.
                offsets = base + zipf.sample(rng, n)
                np.subtract(offsets, region_pages, out=offsets,
                            where=offsets >= region_pages)
                yield AccessEvent.single(
                    "heap",
                    AccessBatch(offsets, self._mix_stores(n, 0.05, rng)),
                )
            emitted += budget
