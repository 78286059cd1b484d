"""Batch sample-folding kernel for `ksampled` (scalar + vectorized).

``fold_samples_*`` folds one :class:`~repro.pebs.sampler.SampleBatch`
into the ksampled state bundle: page counters, main/base histogram bins,
rHR/eHR estimation and the promotion queue.  The scalar variant is the
original per-sample loop; the vectorized variant reproduces its final
state bit-for-bit from per-vpn group arithmetic.  :func:`fold_samples`
picks one per call by batch size (:func:`repro.kernels.path_for`).

Why exact equivalence is possible
---------------------------------
Within one fold call nothing outside the batch mutates: thresholds,
``base_cut_hotness``/``base_cut_fraction``, ``comp``, page tiers and
mapping shapes are all constant.  Each sample increments its page's
counter by one, so per-page hotness is *strictly increasing* across the
batch and the histogram-bin trajectory of each page is monotone.
Consequences exploited by the vectorized kernel:

* the net histogram effect of k samples of one page is a single
  ``old_bin -> final_bin`` move (intermediate moves telescope away);
* the promotion condition "``new_bin >= T_hot`` at *any* sample" is
  equivalent to "final bin ``>= T_hot``" (tier is constant);
* the eHR pre-update hotness of a page's j-th occurrence is the closed
  sequence ``(c0 + j) * comp`` for ``j = 0..k-1``, so the number of
  strict cut-exceedances has a closed form and *at most one* occurrence
  per page can tie the cut exactly (the sequence is strictly
  increasing).  Every tie adds the same fractional credit, which makes
  the tie-credit accumulator order-independent: the scalar float
  recurrence is replayed once per tie, in any order, to the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from repro import kernels
from repro.core.histogram import AccessHistogram, bin_of, bin_of_array
from repro.mem.pages import SUBPAGES_PER_HUGE

#: Batches of fewer samples fold faster through the per-sample loop
#: than through numpy's fixed cost per call.  Measured by
#: ``benchmarks/kernel_crossover.py`` on the silo replay's samples: at
#: 4 samples the loop is ~5x faster (~30-50 us against ~150-300 us),
#: and the two meet at 48-96 samples.
FOLD_CROSSOVER = 64


@dataclass
class FoldState:
    """Mutable ksampled state a fold call updates (views, not copies)."""

    sub_count: np.ndarray
    huge_count: np.ndarray
    main_bin: np.ndarray
    main_weight: np.ndarray
    base_bin: np.ndarray
    hist: AccessHistogram
    base_hist: AccessHistogram

    def clone(self) -> "FoldState":
        """Deep copy for validate-mode shadow execution."""
        hist = AccessHistogram()
        hist.bins[:] = self.hist.bins
        base_hist = AccessHistogram()
        base_hist.bins[:] = self.base_hist.bins
        return FoldState(
            sub_count=self.sub_count.copy(),
            huge_count=self.huge_count.copy(),
            main_bin=self.main_bin.copy(),
            main_weight=self.main_weight.copy(),
            base_bin=self.base_bin.copy(),
            hist=hist,
            base_hist=base_hist,
        )


@dataclass(frozen=True)
class FoldParams:
    """Read-only inputs, constant for the duration of one fold call."""

    page_tier: np.ndarray
    page_huge: np.ndarray
    fast: int
    t_hot: int
    comp: int
    base_cut: int
    base_cut_fraction: float
    tie_credit: float


@dataclass
class FoldResult:
    """Counter deltas produced by one fold call."""

    processed: int = 0
    rhr_hits: int = 0
    ehr_hits: int = 0
    tie_credit: float = 0.0
    #: Page-representative vpns that crossed T_hot on a slower tier.
    promoted: List[int] = field(default_factory=list)


def fold_samples_scalar(
    state: FoldState, vpns: np.ndarray, params: FoldParams
) -> FoldResult:
    """Reference implementation: the original per-sample loop."""
    page_tier = params.page_tier
    page_huge = params.page_huge
    sub_count = state.sub_count
    huge_count = state.huge_count
    hist = state.hist
    base_hist = state.base_hist
    fast = params.fast
    t_hot = params.t_hot
    comp = params.comp
    base_cut = params.base_cut
    res = FoldResult(tie_credit=params.tie_credit)
    tie_credit = params.tie_credit

    for vpn in np.asarray(vpns).tolist():
        if page_tier[vpn] < 0:
            continue  # freed between access and drain
        res.processed += 1

        sub_count[vpn] += 1
        if page_huge[vpn]:
            hpn = vpn >> 9
            huge_count[hpn] += 1
            rep = hpn << 9
            hotness = int(huge_count[hpn])
            weight = SUBPAGES_PER_HUGE
        else:
            rep = vpn
            hotness = int(sub_count[vpn]) * comp
            weight = 1

        # Page access histogram update (possibly crossing a bin).
        new_bin = bin_of(hotness)
        old_bin = int(state.main_bin[rep])
        if old_bin < 0:
            hist.add(new_bin, weight)
            state.main_weight[rep] = weight
            state.main_bin[rep] = new_bin
        elif new_bin != old_bin:
            hist.move(old_bin, new_bin, weight)
            state.main_bin[rep] = new_bin

        # Emulated base page histogram (4 KiB granularity).
        base_hotness = int(sub_count[vpn]) * comp
        new_base_bin = bin_of(base_hotness)
        old_base_bin = int(state.base_bin[vpn])
        if old_base_bin < 0:
            base_hist.add(new_base_bin, 1)
            state.base_bin[vpn] = new_base_bin
        elif new_base_bin != old_base_bin:
            base_hist.move(old_base_bin, new_base_bin, 1)
            state.base_bin[vpn] = new_base_bin

        # rHR: did this access land in the fast tier?
        if page_tier[vpn] == fast:
            res.rhr_hits += 1
        # eHR: would it hit if only the hottest base pages were fast?
        # Judged on the page's hotness *before* this sample; ties at the
        # cut earn fractional credit for the slots they share.
        pre_hotness = base_hotness - comp
        if pre_hotness > base_cut:
            res.ehr_hits += 1
        elif pre_hotness == base_cut:
            tie_credit += params.base_cut_fraction
            if tie_credit >= 1.0:
                tie_credit -= 1.0
                res.ehr_hits += 1

        # Hot page off the fastest tier: promotion candidate (§4.2.3).
        if new_bin >= t_hot and page_tier[vpn] != fast:
            res.promoted.append(int(rep))

    res.tie_credit = tie_credit
    return res


def fold_samples_vectorized(
    state: FoldState, vpns: np.ndarray, params: FoldParams
) -> FoldResult:
    """Batched fold: bit-identical final state to the scalar loop."""
    vpns = np.asarray(vpns, dtype=np.int64)
    tier = params.page_tier[vpns]
    kept = vpns[tier >= 0]
    processed = int(len(kept))
    if processed == 0:
        return FoldResult(tie_credit=params.tie_credit)
    comp = params.comp

    uv, counts = np.unique(kept, return_counts=True)
    c0 = state.sub_count[uv].astype(np.int64)
    state.sub_count[uv] += counts

    huge = params.page_huge[uv]
    base_uv = uv[~huge]
    n_base = len(base_uv)

    # Huge-page counters aggregate across sampled subpages of one hpn.
    hv = uv[huge]
    if len(hv):
        hpn_u, inv = np.unique(hv >> 9, return_inverse=True)
        hpn_counts = np.bincount(inv, weights=counts[huge]).astype(np.int64)
        h0 = state.huge_count[hpn_u].astype(np.int64)
        state.huge_count[hpn_u] += hpn_counts
    else:
        hpn_u = np.empty(0, dtype=np.int64)
        hpn_counts = h0 = np.empty(0, dtype=np.int64)

    # -- main histogram: one net old_bin -> final_bin move per rep -------
    final_counts = c0 + counts
    reps = np.concatenate([hpn_u << 9, base_uv])
    weights = np.concatenate([
        np.full(len(hpn_u), SUBPAGES_PER_HUGE, dtype=np.int64),
        np.ones(n_base, dtype=np.int64),
    ])
    final_hot = np.concatenate([h0 + hpn_counts, final_counts[~huge] * comp])
    new_bins = bin_of_array(final_hot)
    old_bins = state.main_bin[reps].astype(np.int64)
    present = old_bins >= 0
    num_bins = state.hist.num_bins
    delta = np.bincount(
        new_bins, weights=weights, minlength=num_bins
    ).astype(np.int64)
    if present.any():
        delta -= np.bincount(
            old_bins[present], weights=weights[present], minlength=num_bins
        ).astype(np.int64)
    state.hist.bins += delta
    state.main_bin[reps] = new_bins.astype(state.main_bin.dtype)
    absent = reps[~present]
    if len(absent):
        # The scalar loop only writes main_weight on first sighting.
        state.main_weight[absent] = weights[~present].astype(
            state.main_weight.dtype
        )

    # -- emulated base histogram: per sampled 4 KiB page -----------------
    new_bbins = bin_of_array(final_counts * comp)
    old_bbins = state.base_bin[uv].astype(np.int64)
    bpresent = old_bbins >= 0
    bdelta = np.bincount(new_bbins, minlength=num_bins).astype(np.int64)
    if bpresent.any():
        bdelta -= np.bincount(
            old_bbins[bpresent], minlength=num_bins
        ).astype(np.int64)
    state.base_hist.bins += bdelta
    state.base_bin[uv] = new_bbins.astype(state.base_bin.dtype)

    # -- rHR -------------------------------------------------------------
    rhr_hits = int(np.count_nonzero(params.page_tier[kept] == params.fast))

    # -- eHR: pre-hotness sequence (c0 + j) * comp, j = 0..k-1 -----------
    # Strict exceedance: (c0 + j) * comp > base_cut  <=>  c0 + j >= q + 1
    # with q = base_cut // comp (integer arithmetic, comp >= 1).
    base_cut = params.base_cut
    q = base_cut // comp
    ehr_hits = int((counts - np.clip(q + 1 - c0, 0, counts)).sum())
    # Exact tie: only possible when comp divides base_cut, and then only
    # for the single occurrence with c0 + j == q (strictly increasing).
    tie_credit = params.tie_credit
    if base_cut % comp == 0:
        m = int(np.count_nonzero((c0 <= q) & (q < c0 + counts)))
        # Replay the scalar float recurrence once per tie; every tie adds
        # the same credit so the result is order-independent, and a
        # closed form would not round identically.
        f = params.base_cut_fraction
        for _ in range(m):
            tie_credit += f
            if tie_credit >= 1.0:
                tie_credit -= 1.0
                ehr_hits += 1

    # -- promotion: final bin >= T_hot off the fastest tier --------------
    promo = reps[(new_bins >= params.t_hot)
                 & (params.page_tier[reps] != params.fast)]

    return FoldResult(
        processed=processed,
        rhr_hits=rhr_hits,
        ehr_hits=ehr_hits,
        tie_credit=tie_credit,
        promoted=[int(r) for r in promo],
    )


def fold_samples(
    state: FoldState, vpns: np.ndarray, params: FoldParams
) -> FoldResult:
    """Fold ``vpns`` through the path the kernel mode picks for their
    count: scalar below :data:`FOLD_CROSSOVER`, vectorized at or above
    it, or both in ``validate`` mode."""
    path = kernels.path_for(len(vpns), FOLD_CROSSOVER)
    if path == kernels.SCALAR:
        return fold_samples_scalar(state, vpns, params)
    if path == kernels.VALIDATE:
        return fold_samples_validate(state, vpns, params)
    return fold_samples_vectorized(state, vpns, params)


def fold_samples_validate(
    state: FoldState, vpns: np.ndarray, params: FoldParams
) -> FoldResult:
    """Run both kernels; assert bit-identical state; return the fast one."""
    shadow = state.clone()
    ref = fold_samples_scalar(shadow, vpns, params)
    res = fold_samples_vectorized(state, vpns, params)

    if not (
        res.processed == ref.processed
        and res.rhr_hits == ref.rhr_hits
        and res.ehr_hits == ref.ehr_hits
        and res.tie_credit == ref.tie_credit
        and set(res.promoted) == set(ref.promoted)
    ):
        raise AssertionError(
            f"fold kernel mismatch: vectorized {res} != scalar {ref}"
        )
    for name in ("sub_count", "huge_count", "main_bin", "main_weight",
                 "base_bin"):
        if not np.array_equal(getattr(state, name), getattr(shadow, name)):
            raise AssertionError(f"fold kernel mismatch in {name}")
    if not np.array_equal(state.hist.bins, shadow.hist.bins):
        raise AssertionError("fold kernel mismatch in main histogram")
    if not np.array_equal(state.base_hist.bins, shadow.base_hist.bins):
        raise AssertionError("fold kernel mismatch in base histogram")
    return res
