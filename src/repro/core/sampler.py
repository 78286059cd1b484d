"""`ksampled`: MEMTIS's sample-processing daemon (§4.1, §4.2.1, §4.3.1).

For every PEBS record, `ksampled`:

1. updates the page access metadata (huge-page counter + subpage counter,
   the compound-page layout of §5);
2. moves the page between bins of the **page access histogram** (hotness
   ``H_i = C_i`` for a huge page, ``C_i * nr_subpages`` for a base page);
3. moves the 4 KiB page in the **emulated base page histogram** (hotness
   ``C * nr_subpages`` regardless of actual mapping size) -- the
   what-if-only-base-pages world used for split benefit estimation;
4. accounts rHR (did the sample hit the fast tier?) and eHR (is the
   4 KiB page hotter than the base histogram's hot threshold?);
5. enqueues capacity-tier pages that crossed ``T_hot`` for promotion.

It also adapts the thresholds every ``adaptation_interval`` samples
(Algorithm 1), requests cooling every ``cooling_interval`` samples, and
runs the dynamic sampling-period controller against its own modelled CPU
usage (3% cap).
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

import numpy as np

from repro.obs.tracer import DEBUG as TRACE_DEBUG
from repro.core.config import MemtisConfig
from repro.core.histogram import AccessHistogram, bin_of, bin_of_array
from repro.kernels.sample_fold import FoldParams, FoldState, fold_samples
from repro.core.thresholds import (
    INITIAL_THRESHOLDS,
    Thresholds,
    adapt_thresholds,
    cold_set_bytes,
    hot_set_bytes,
    warm_set_bytes,
)
from repro.mem.pages import (
    BASE_PAGE_SIZE,
    PageMetadataTable,
    SUBPAGES_PER_HUGE,
    vpn_to_hpn,
)
from repro.mem.tiers import FASTEST_TIER
from repro.pebs.overhead import CpuOverheadModel, SamplingPeriodController
from repro.pebs.sampler import SampleBatch
from repro.policies.base import PolicyContext


class KSampled:
    """Sample processing, histograms, thresholds, rHR/eHR, period control."""

    #: Live wiring the checkpoint walk leaves out (``repro.snapshot``).
    #: The registry-backed counters and gauges are checkpointed with the
    #: run's registry, as the same instrument objects.
    _CHECKPOINT_EXCLUDE = frozenset({"ctx", "tracer", "counters"})

    def __init__(self, config: MemtisConfig, ctx: PolicyContext):
        self.config = config
        self.ctx = ctx
        num_vpns = ctx.space.num_vpns

        # Observability: the run counters below live in the shared
        # registry (serialised into SimResult.to_dict()["observability"])
        # instead of ad-hoc ints; the int-valued attributes
        # (`total_samples`, `adaptations`, `coolings_requested`) are
        # properties over these instruments, and setting `thresholds`
        # sets the threshold gauges.
        self.tracer = ctx.obs.tracer
        self.counters = ctx.obs.counters.scope("ksampled")
        self._c_samples = self.counters.counter("samples")
        self._c_adaptations = self.counters.counter("adaptations")
        self._c_coolings = self.counters.counter("coolings")
        self._g_promq = self.counters.gauge("promotion_queue")
        self._g_ehr = self.counters.gauge("ehr")
        self._g_rhr = self.counters.gauge("rhr")
        self._g_t_hot = self.counters.gauge("t_hot")
        self._g_t_warm = self.counters.gauge("t_warm")
        self._g_t_cold = self.counters.gauge("t_cold")
        self._d_fold = self.counters.distribution("fold_batch_samples")

        self.meta = PageMetadataTable(num_vpns)
        self.hist = AccessHistogram()
        self.base_hist = AccessHistogram()
        #: Current histogram bin of each page representative (-1 = absent).
        self.main_bin = np.full(num_vpns, -1, dtype=np.int16)
        #: 4 KiB-page weight of each representative (512 huge / 1 base).
        self.main_weight = np.zeros(num_vpns, dtype=np.int16)
        #: Current base-histogram bin of each mapped 4 KiB page.
        self.base_bin = np.full(num_vpns, -1, dtype=np.int16)

        self.thresholds = INITIAL_THRESHOLDS
        self.base_thresholds: Thresholds = INITIAL_THRESHOLDS
        #: Exact hotness cut for eHR: the hotness of the page that would
        #: just fit the usable fast tier if only base pages existed.  The
        #: bin-granular base threshold is too coarse at simulation scale
        #: (one PEBS sample already lands a page in bin 9), so the eHR
        #: estimate uses this quantile instead.
        self.base_cut_hotness: int = 1
        #: Fraction of pages *at* the cut hotness that still fit DRAM
        #: (ties share the remaining capacity).
        self.base_cut_fraction: float = 1.0
        self._tie_credit = 0.0
        self.promotion_queue: Set[int] = set()

        self._since_adaptation = 0
        self._since_cooling = 0
        self._since_estimation = 0
        self._window_samples = 0
        self._rhr_hits = 0
        self._ehr_hits = 0
        self.total_samples = 0
        self.adaptations = 0
        self.coolings_requested = 0
        self.last_ehr = 0.0
        self.last_rhr = 0.0

        #: Base-page hotness compensation factor (ablation: 1 disables).
        self.comp = SUBPAGES_PER_HUGE if config.compensate_base_hotness else 1
        #: The fold kernel's state and inputs, built once: every array
        #: is updated in place, never rebound (see `fold_inputs`).
        self._fold_state = FoldState(
            sub_count=self.meta.sub_count,
            huge_count=self.meta.huge_count,
            main_bin=self.main_bin,
            main_weight=self.main_weight,
            base_bin=self.base_bin,
            hist=self.hist,
            base_hist=self.base_hist,
        )
        self._fold_params = FoldParams(
            page_tier=ctx.space.page_tier,
            page_huge=ctx.space.page_huge,
            fast=FASTEST_TIER,
            t_hot=0, comp=self.comp, base_cut=0,
            base_cut_fraction=0.0, tie_credit=0.0,
        )

        self.overhead = CpuOverheadModel()
        self.controller: Optional[SamplingPeriodController] = None
        if config.dynamic_period:
            self.controller = SamplingPeriodController(
                limit=config.cpu_limit, hysteresis=config.cpu_hysteresis,
                min_load_period=config.load_period,
                max_load_period=config.load_period * 7,
                min_store_period=config.store_period,
                max_store_period=config.store_period * 7,
            )

    # -- registry-backed run counters (assignable for test harnesses) ------------

    @property
    def thresholds(self) -> Thresholds:
        return self._thresholds

    @thresholds.setter
    def thresholds(self, value: Thresholds) -> None:
        self._thresholds = value
        self._g_t_hot.set(float(value.hot))
        self._g_t_warm.set(float(value.warm))
        self._g_t_cold.set(float(value.cold))

    @property
    def total_samples(self) -> int:
        return self._c_samples.value

    @total_samples.setter
    def total_samples(self, value: int) -> None:
        self._c_samples.value = value

    @property
    def adaptations(self) -> int:
        return self._c_adaptations.value

    @adaptations.setter
    def adaptations(self, value: int) -> None:
        self._c_adaptations.value = value

    @property
    def coolings_requested(self) -> int:
        return self._c_coolings.value

    @coolings_requested.setter
    def coolings_requested(self, value: int) -> None:
        self._c_coolings.value = value

    # -- region lifecycle --------------------------------------------------------

    def on_region_alloc(self, region) -> None:
        """Seed new pages at the current hot threshold (§4.2.1).

        "Initial hotness for newly allocated pages is set to the current
        hotness threshold to prevent them from being immediately chosen
        as demotion candidates."  We seed the bin arrays directly; the
        next cooling rebuild re-derives bins from real counters, so the
        boost decays exactly like any other stale hotness.
        """
        space = self.ctx.space
        t_hot = self.thresholds.hot if self.config.seed_new_pages else 0
        # The base histogram is *not* seeded at the threshold: it emulates
        # the pure count-derived distribution used for eHR, and seeding it
        # would count every fresh page as an estimated hit.
        t_base = 0
        vpns = np.arange(region.base_vpn, region.end_vpn)
        huge = space.page_huge[vpns]
        heads = vpns[huge][:: SUBPAGES_PER_HUGE] if huge.any() else vpns[:0]
        base = vpns[~huge]

        if len(heads):
            self.main_bin[heads] = t_hot
            self.main_weight[heads] = SUBPAGES_PER_HUGE
            self.hist.add(t_hot, int(len(heads)) * SUBPAGES_PER_HUGE)
            # Seed the compound-page counter itself so the page *stays*
            # at T_hot as samples arrive (and decays through cooling like
            # any other hotness).  This is what lets MEMTIS promote
            # fresh, immediately-hot allocations "as soon as they are
            # sampled once" (§6.2.8).  Subpage counters stay zero, so
            # utilisation/skewness statistics are not polluted.
            if self.config.seed_new_pages:
                self.meta.huge_count[vpn_to_hpn(heads)] = 1 << t_hot
        if len(base):
            self.main_bin[base] = t_hot
            self.main_weight[base] = 1
            self.hist.add(t_hot, int(len(base)))
        self.base_bin[vpns] = t_base
        self.base_hist.add(t_base, int(len(vpns)))

    def on_unmap(self, base_vpn: int, num_vpns: int) -> None:
        """Remove a freed range from both histograms and reset counters."""
        sl = slice(base_vpn, base_vpn + num_vpns)
        main_present = self.main_bin[sl] >= 0
        if main_present.any():
            bins = self.main_bin[sl][main_present].astype(np.int64)
            weights = self.main_weight[sl][main_present].astype(np.int64)
            self.hist.bins -= np.bincount(
                bins, weights=weights, minlength=self.hist.num_bins
            ).astype(np.int64)
        base_present = self.base_bin[sl] >= 0
        if base_present.any():
            bins = self.base_bin[sl][base_present].astype(np.int64)
            self.base_hist.bins -= np.bincount(
                bins, minlength=self.base_hist.num_bins
            ).astype(np.int64)
        self.main_bin[sl] = -1
        self.main_weight[sl] = 0
        self.base_bin[sl] = -1
        self.meta.reset_range(base_vpn, num_vpns)
        # The promotion queue is deliberately NOT scanned here: a full
        # O(|queue|) rescan per region free dominated short-lived
        # allocation churn.  Stale entries are pruned lazily at drain
        # time instead -- `KMigrated._promote` re-checks every entry
        # against `page_tier`/`main_bin` and discards the dead ones.

    def on_demand_map(self, vpns: np.ndarray) -> None:
        """Seed base pages demand-mapped after a split freed them."""
        t_hot = self.thresholds.hot
        t_base = 0
        fresh = vpns[self.main_bin[vpns] < 0]
        if len(fresh):
            self.main_bin[fresh] = t_hot
            self.main_weight[fresh] = 1
            self.hist.add(t_hot, int(len(fresh)))
        fresh_base = vpns[self.base_bin[vpns] < 0]
        if len(fresh_base):
            self.base_bin[fresh_base] = t_base
            self.base_hist.add(t_base, int(len(fresh_base)))

    # -- the per-sample hot path ----------------------------------------------------

    def fold_inputs(self) -> Tuple[FoldState, FoldParams]:
        """The state a fold updates (views, not copies) and its inputs,
        with the inputs that move between folds brought up to date."""
        params = self._fold_params
        params.t_hot = self.thresholds.hot
        params.base_cut = self.base_cut_hotness
        params.base_cut_fraction = self.base_cut_fraction
        params.tie_credit = self._tie_credit
        return self._fold_state, params

    def process_samples(self, samples: SampleBatch) -> None:
        """Fold one batch of PEBS records into all statistics.

        :func:`repro.kernels.sample_fold.fold_samples` picks the path:
        by default the per-sample loop for small batches and the
        vectorized fold for large ones, or whichever path
        ``REPRO_SCALAR_KERNELS`` pins (both, asserting equal state, in
        ``validate`` mode).  All paths produce bit-identical counters,
        histograms and promotion-queue membership.
        """
        state, params = self.fold_inputs()
        res = fold_samples(state, samples.vpn, params)

        self.total_samples += res.processed
        self._since_adaptation += res.processed
        self._since_cooling += res.processed
        self._since_estimation += res.processed
        self._window_samples += res.processed
        self._rhr_hits += res.rhr_hits
        self._ehr_hits += res.ehr_hits
        self._tie_credit = res.tie_credit
        self.promotion_queue.update(res.promoted)
        self._d_fold.record(res.processed)
        self._g_promq.set(float(len(self.promotion_queue)))
        tracer = self.tracer
        if tracer.enabled_for("sample", TRACE_DEBUG):
            tracer.emit(
                "sample", "sample_fold", TRACE_DEBUG,
                processed=res.processed, rhr_hits=res.rhr_hits,
                ehr_hits=res.ehr_hits, promoted=len(res.promoted),
                promotion_queue=len(self.promotion_queue),
            )

    # -- periodic duties ------------------------------------------------------------

    def adaptation_due(self) -> bool:
        return self._since_adaptation >= self.config.adaptation_interval_samples

    def cooling_due(self) -> bool:
        return self._since_cooling >= self.config.cooling_interval_samples

    def estimation_due(self) -> bool:
        return self._since_estimation >= self.config.estimation_interval_samples

    def adapt(self) -> None:
        """Algorithm 1 over both histograms.

        Thresholds are computed against the *usable* fast capacity
        (capacity minus the free-space headroom kmigrated maintains): at
        paper scale the 2% headroom is negligible, but at simulation
        scale it can be ~10% of a small DRAM, and sizing the hot set --
        and especially the eHR estimate -- to unreachable capacity would
        leave a permanent phantom split benefit.
        """
        from repro.policies.base import scaled_headroom

        fast_bytes = self.ctx.tiers.fast.capacity_bytes
        usable = max(
            BASE_PAGE_SIZE,
            fast_bytes - scaled_headroom(
                fast_bytes, self.config.free_space_fraction
            ),
        )
        old = self.thresholds
        self.thresholds = adapt_thresholds(
            self.hist, usable, alpha=self.config.alpha
        )
        self.base_thresholds = adapt_thresholds(
            self.base_hist, usable, alpha=self.config.alpha
        )
        self._update_base_cut(usable)
        self._since_adaptation = 0
        self.adaptations += 1
        if self.tracer.enabled_for("threshold"):
            self.tracer.emit(
                "threshold", "threshold_update",
                old=old.to_dict(), new=self.thresholds.to_dict(),
                base_hot=self.base_thresholds.hot,
                base_cut_hotness=self.base_cut_hotness,
                base_cut_fraction=self.base_cut_fraction,
                usable_fast_bytes=usable,
            )

    def _update_base_cut(self, usable_fast_bytes: int) -> None:
        """Exact hotness of the marginal base page that still fits DRAM.

        ``base_cut_hotness`` is the hotness of the K-th hottest 4 KiB
        page (K = usable fast pages); pages strictly hotter always fit,
        pages *at* the cut fit with probability ``base_cut_fraction``
        (they tie for the remaining slots).  eHR accounting credits ties
        fractionally, which keeps the estimate honest under sparse
        sampling where thousands of pages share one sample count.
        """
        space = self.ctx.space
        mapped = np.flatnonzero(space.page_tier >= 0)
        fast_pages = usable_fast_bytes // BASE_PAGE_SIZE
        if len(mapped) == 0 or fast_pages <= 0:
            self.base_cut_hotness = 1
            self.base_cut_fraction = 1.0
            return
        hotness = self.meta.sub_count[mapped].astype(np.int64) * self.comp
        if fast_pages >= len(mapped):
            self.base_cut_hotness = 0
            self.base_cut_fraction = 1.0
            return
        cut = int(np.partition(hotness, -fast_pages)[-fast_pages])
        self.base_cut_hotness = cut
        above = int(np.count_nonzero(hotness > cut))
        at = int(np.count_nonzero(hotness == cut))
        self.base_cut_fraction = (
            (fast_pages - above) / at if at > 0 else 1.0
        )

    def finish_estimation_window(self):
        """Close the rHR/eHR window; returns (ehr, rhr) over it."""
        window = max(1, self._window_samples)
        ehr = self._ehr_hits / window
        rhr = self._rhr_hits / window
        self.last_ehr, self.last_rhr = ehr, rhr
        self._g_ehr.set(ehr)
        self._g_rhr.set(rhr)
        self._window_samples = 0
        self._rhr_hits = 0
        self._ehr_hits = 0
        self._since_estimation = 0
        return ehr, rhr

    def cool(self) -> None:
        """Halve every counter and rebuild histograms/bins exactly.

        The paper shifts the histogram and has `kmigrated` walk the page
        lists halving counters, correcting top-bin stragglers afterwards;
        rebuilding from the halved counters yields the same final state
        in one vectorised pass.
        """
        self.meta.cool()
        self._since_cooling = 0
        self.coolings_requested += 1
        if self.tracer.enabled_for("cooling"):
            self.tracer.emit(
                "cooling", "cooling",
                cooling_number=self.coolings_requested,
                total_samples=self.total_samples,
            )

        space = self.ctx.space
        mapped = space.page_tier >= 0

        self.main_bin[:] = -1
        self.main_weight[:] = 0
        self.base_bin[:] = -1

        hpns = space.mapped_huge_hpns()
        heads = hpns << 9
        if len(heads):
            bins = bin_of_array(self.meta.huge_count[hpns])
            self.main_bin[heads] = bins.astype(np.int16)
            self.main_weight[heads] = SUBPAGES_PER_HUGE
        base_vpns = np.flatnonzero(mapped & ~space.page_huge)
        if len(base_vpns):
            bins = bin_of_array(self.meta.sub_count[base_vpns] * self.comp)
            self.main_bin[base_vpns] = bins.astype(np.int16)
            self.main_weight[base_vpns] = 1

        present = self.main_weight > 0
        self.hist.rebuild(
            self.main_bin[present].astype(np.int64),
            self.main_weight[present].astype(np.int64),
        )

        all_vpns = np.flatnonzero(mapped)
        if len(all_vpns):
            bins = bin_of_array(self.meta.sub_count[all_vpns] * self.comp)
            self.base_bin[all_vpns] = bins.astype(np.int16)
            self.base_hist.rebuild(
                bins.astype(np.int64), np.ones(len(all_vpns), dtype=np.int64)
            )
        else:
            self.base_hist.bins[:] = 0

    # -- mapping-shape changes driven by kmigrated ------------------------------------

    def on_split(self, hpn: int, kept_mask: np.ndarray) -> None:
        """A huge page was split; re-account its pages in the histograms."""
        head = hpn << 9
        old_bin = int(self.main_bin[head])
        if old_bin >= 0:
            self.hist.remove(old_bin, SUBPAGES_PER_HUGE)
        self.main_bin[head : head + SUBPAGES_PER_HUGE] = -1
        self.main_weight[head : head + SUBPAGES_PER_HUGE] = 0
        self.meta.huge_count[hpn] = 0

        vpns = head + np.flatnonzero(kept_mask)
        if len(vpns):
            bins = bin_of_array(self.meta.sub_count[vpns] * self.comp)
            self.main_bin[vpns] = bins.astype(np.int16)
            self.main_weight[vpns] = 1
            self.hist.bins += np.bincount(
                bins, minlength=self.hist.num_bins
            ).astype(np.int64)
        # Freed (all-zero) subpages leave the base histogram too.
        freed = head + np.flatnonzero(~kept_mask)
        if len(freed):
            present = self.base_bin[freed] >= 0
            if present.any():
                bins = self.base_bin[freed][present].astype(np.int64)
                self.base_hist.bins -= np.bincount(
                    bins, minlength=self.base_hist.num_bins
                ).astype(np.int64)
            self.base_bin[freed] = -1
            self.meta.sub_count[freed] = 0

    def on_collapse(self, hpn: int) -> None:
        """512 base pages were coalesced into huge page ``hpn``."""
        head = hpn << 9
        sl = slice(head, head + SUBPAGES_PER_HUGE)
        present = self.main_bin[sl] >= 0
        if present.any():
            bins = self.main_bin[sl][present].astype(np.int64)
            weights = self.main_weight[sl][present].astype(np.int64)
            self.hist.bins -= np.bincount(
                bins, weights=weights, minlength=self.hist.num_bins
            ).astype(np.int64)
        total = int(self.meta.sub_count[sl].sum())
        self.meta.huge_count[hpn] = total
        new_bin = bin_of(total)
        self.main_bin[sl] = -1
        self.main_weight[sl] = 0
        self.main_bin[head] = new_bin
        self.main_weight[head] = SUBPAGES_PER_HUGE
        self.hist.add(new_bin, SUBPAGES_PER_HUGE)

    # -- dynamic sampling period --------------------------------------------------------

    def update_period(self, batch_samples: int, batch_wall_ns: float) -> None:
        """EMA CPU usage + hysteresis adjustment (§4.1.1)."""
        usage = self.overhead.window_usage(batch_samples, batch_wall_ns)
        if self.controller is None or self.ctx.sampler is None:
            return
        new_load, new_store = self.controller.update(
            usage, self.ctx.sampler.load_period, self.ctx.sampler.store_period
        )
        if (new_load, new_store) != (
            self.ctx.sampler.load_period, self.ctx.sampler.store_period
        ):
            self.ctx.sampler.set_periods(new_load, new_store)

    # -- reporting ------------------------------------------------------------------------

    def set_sizes(self) -> Dict[str, float]:
        return {
            "hot_bytes": float(hot_set_bytes(self.hist, self.thresholds)),
            "warm_bytes": float(warm_set_bytes(self.hist, self.thresholds)),
            "cold_bytes": float(cold_set_bytes(self.hist, self.thresholds)),
        }
