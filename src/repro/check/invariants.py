"""The invariant sanitizer: cross-structure consistency checks.

Every check inspects relationships *between* the simulator's data
structures -- the kind of bookkeeping that drifts silently when one
side of a paired update is missed (HeMem ships debug-mode consistency
asserts for the same reason; the TPP reference self-checks its
watermarks).  The catalogue:

``tier-accounting``
    Each tier's ``used_bytes`` equals the byte-sum implied by
    ``page_tier``, and stays within ``[0, capacity]``.
``mapping-shape``
    ``page_huge`` runs cover whole aligned 2 MiB slots with one uniform
    mapped tier; unmapped vpns are never marked huge.  With
    ``tier-accounting`` this is :meth:`AddressSpace.check_consistency`:
    ``page_tier``/``page_huge`` are the one record of every mapping, so
    the address space checks them against themselves and the tiers.
``histogram-mass``
    Rebuilding both histograms from ``main_bin``/``main_weight`` and
    ``base_bin`` reproduces ``hist``/``base_hist`` exactly (mass is
    conserved across cooling, split and collapse); weights follow the
    mapping shape (512 at huge heads, 1 at mapped base pages, 0
    elsewhere); per-page counters never go negative.
``promotion-queue``
    Stale entries are allowed (pruning is lazy by design -- see
    ``KSampled.on_unmap``), but any entry the drain loop would actually
    promote (mapped below the fastest tier with a live histogram bin)
    must be a mapping representative, never the interior subpage of a
    huge mapping.
``split-bookkeeping``
    ``split_queue`` entries are unique and tracked in ``split_hpns``;
    an hpn in ``split_hpns`` but not queued must refer to a currently
    split range -- neither huge-mapped again (a leaked entry would
    permanently block future splits in ``consider_split``) nor fully
    unmapped (bookkeeping surviving a region free).
``tlb-coherence``
    Every 4K TLB entry translates a live base mapping and every 2M
    entry a live huge mapping (migrate/split/collapse/free must all
    shoot down what they invalidate).

Violations raise :class:`InvariantViolation` carrying the structured
findings, the site that tripped them, and the tail of the tracer's
event buffer when tracing is enabled.
"""

from __future__ import annotations

import enum
import os
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from repro.mem.pages import BASE_PAGE_SIZE, SUBPAGES_PER_HUGE, hpn_to_vpn
from repro.mem.tiers import FASTEST_TIER, tier_label

#: Number of trailing tracer events attached to a violation.
TRACE_TAIL_EVENTS = 16


class CheckLevel(enum.IntEnum):
    """How often the sanitizer runs (each level includes the ones below)."""

    OFF = 0
    END = 1     #: once, at the end of the run
    EPOCH = 2   #: at every epoch close, plus at run end
    STRICT = 3  #: after every access batch, plus epoch and end sites


#: Accepted spellings for each level (CLI, RunSpec.check, REPRO_CHECK).
_LEVEL_NAMES: Dict[str, CheckLevel] = {
    "": CheckLevel.OFF,
    "0": CheckLevel.OFF,
    "off": CheckLevel.OFF,
    "end": CheckLevel.END,
    "1": CheckLevel.EPOCH,
    "on": CheckLevel.EPOCH,
    "epoch": CheckLevel.EPOCH,
    "2": CheckLevel.STRICT,
    "strict": CheckLevel.STRICT,
}


def parse_check_level(value) -> CheckLevel:
    """Parse a level from a name, ``REPRO_CHECK`` value, or CheckLevel."""
    if value is None:
        return CheckLevel.OFF
    if isinstance(value, CheckLevel):
        return value
    name = str(value).strip().lower()
    if name not in _LEVEL_NAMES:
        raise ValueError(
            f"unknown check level {value!r}; expected one of "
            f"{sorted(n for n in _LEVEL_NAMES if n)}"
        )
    return _LEVEL_NAMES[name]


def check_level_from_env() -> CheckLevel:
    """Level requested via ``REPRO_CHECK`` (``1`` maps to per-epoch)."""
    return parse_check_level(os.environ.get("REPRO_CHECK", ""))


def resolve_check_level(explicit=None) -> CheckLevel:
    """An explicit request wins; otherwise fall back to the environment."""
    if explicit is not None:
        return parse_check_level(explicit)
    return check_level_from_env()


@dataclass(frozen=True)
class Finding:
    """One invariant violation discovered by a check."""

    check: str
    message: str
    details: Dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:
        extra = ""
        if self.details:
            extra = " (" + ", ".join(
                f"{k}={v}" for k, v in sorted(self.details.items())
            ) + ")"
        return f"[{self.check}] {self.message}{extra}"


class InvariantViolation(RuntimeError):
    """Raised when any registered invariant fails.

    Attributes: ``findings`` (list of :class:`Finding`), ``site``
    (``"batch"``/``"epoch"``/``"end"``/``"manual"``), ``now_ns`` (the
    virtual clock when the check ran), ``trace_tail`` (the most recent
    tracer events, empty when tracing is disabled).
    """

    def __init__(self, findings: List[Finding], site: str = "manual",
                 now_ns: float = 0.0, trace_tail=()):
        self.findings = list(findings)
        self.site = site
        self.now_ns = now_ns
        self.trace_tail = list(trace_tail)
        lines = [
            f"{len(self.findings)} invariant violation(s) at site "
            f"{site!r} (t={now_ns:.0f}ns):"
        ]
        lines += [f"  - {f}" for f in self.findings]
        if self.trace_tail:
            lines.append(f"  last {len(self.trace_tail)} trace events attached")
        super().__init__("\n".join(lines))

    def to_dict(self) -> Dict[str, Any]:
        return {
            "site": self.site,
            "now_ns": self.now_ns,
            "findings": [
                {"check": f.check, "message": f.message, "details": f.details}
                for f in self.findings
            ],
        }


@dataclass
class CheckContext:
    """Everything a check function may inspect (read-only by convention)."""

    space: Any
    tiers: Any
    tlb: Any = None
    policy: Any = None

    @property
    def ksampled(self):
        return getattr(self.policy, "ksampled", None)

    @property
    def kmigrated(self):
        return getattr(self.policy, "kmigrated", None)


# -- the invariant catalogue ---------------------------------------------------


def check_tier_accounting(ctx: CheckContext) -> List[Finding]:
    """Tier ``used_bytes`` equals ``page_tier``'s byte-sum, within capacity."""
    findings = []
    pt = ctx.space.page_tier
    for tier in ctx.tiers:
        mapped = int(np.count_nonzero(pt == tier.index)) * BASE_PAGE_SIZE
        if tier.used_bytes != mapped:
            findings.append(Finding(
                "tier-accounting",
                f"{tier.spec.name}: used_bytes disagrees with page_tier",
                {"used_bytes": tier.used_bytes, "mapped_bytes": mapped},
            ))
        if not 0 <= tier.used_bytes <= tier.capacity_bytes:
            findings.append(Finding(
                "tier-accounting",
                f"{tier.spec.name}: used_bytes outside [0, capacity]",
                {"used_bytes": tier.used_bytes,
                 "capacity_bytes": tier.capacity_bytes},
            ))
    return findings


def check_mapping_shape(ctx: CheckContext) -> List[Finding]:
    """Huge flags cover whole aligned slots with one uniform mapped tier."""
    findings = []
    space = ctx.space
    huge_rows = space.page_huge.reshape(space.num_hpns, SUBPAGES_PER_HUGE)
    tier_rows = space.page_tier.reshape(space.num_hpns, SUBPAGES_PER_HUGE)
    any_huge = huge_rows.any(axis=1)
    partial = any_huge & ~huge_rows.all(axis=1)
    for hpn in np.flatnonzero(partial)[:8].tolist():
        findings.append(Finding(
            "mapping-shape",
            "page_huge covers only part of an aligned 2 MiB slot",
            {"hpn": hpn},
        ))
    if any_huge.any():
        rows = tier_rows[any_huge & ~partial]
        bad = (rows.min(axis=1) != rows.max(axis=1)) | (rows[:, 0] < 0)
        for i in np.flatnonzero(bad)[:8].tolist():
            hpn = int(np.flatnonzero(any_huge & ~partial)[i])
            subpage_tiers = sorted(
                tier_label(t, ctx.tiers) for t in np.unique(rows[i]).tolist()
            )
            findings.append(Finding(
                "mapping-shape",
                "huge-mapped slot has mixed or unmapped subpage tiers",
                {"hpn": hpn, "subpage_tiers": subpage_tiers},
            ))
    return findings


def check_histogram_mass(ctx: CheckContext) -> List[Finding]:
    """Histogram mass is exactly the bin/weight arrays' content."""
    ks = ctx.ksampled
    if ks is None:
        return []
    findings = []
    space = ctx.space
    mapped = space.page_tier >= 0
    huge = space.page_huge
    heads = np.zeros(space.num_vpns, dtype=bool)
    heads[:: SUBPAGES_PER_HUGE] = True
    huge_heads = mapped & huge & heads

    if np.any(ks.hist.bins < 0) or np.any(ks.base_hist.bins < 0):
        findings.append(Finding(
            "histogram-mass", "histogram bin went negative",
            {"hist": ks.hist.bins.tolist(),
             "base_hist": ks.base_hist.bins.tolist()},
        ))
    present = ks.main_weight > 0
    rebuilt = np.bincount(
        ks.main_bin[present].astype(np.int64),
        weights=ks.main_weight[present].astype(np.int64),
        minlength=ks.hist.num_bins,
    ).astype(np.int64)
    if not np.array_equal(rebuilt, ks.hist.bins):
        findings.append(Finding(
            "histogram-mass",
            "hist mass disagrees with main_bin/main_weight",
            {"hist": ks.hist.bins.tolist(), "rebuilt": rebuilt.tolist()},
        ))
    base_present = ks.base_bin >= 0
    base_rebuilt = np.bincount(
        ks.base_bin[base_present].astype(np.int64),
        minlength=ks.base_hist.num_bins,
    ).astype(np.int64)
    if not np.array_equal(base_rebuilt, ks.base_hist.bins):
        findings.append(Finding(
            "histogram-mass",
            "base_hist mass disagrees with base_bin",
            {"base_hist": ks.base_hist.bins.tolist(),
             "rebuilt": base_rebuilt.tolist()},
        ))

    # Weight shape: 512 at huge heads, 1 at mapped base pages, 0 elsewhere.
    expected = np.zeros(space.num_vpns, dtype=np.int64)
    expected[huge_heads] = SUBPAGES_PER_HUGE
    expected[mapped & ~huge] = 1
    bad = np.flatnonzero(ks.main_weight.astype(np.int64) != expected)
    if len(bad):
        vpn = int(bad[0])
        findings.append(Finding(
            "histogram-mass",
            "main_weight disagrees with the mapping shape",
            {"vpn": vpn, "weight": int(ks.main_weight[vpn]),
             "expected": int(expected[vpn]), "pages": len(bad)},
        ))
    if np.any((ks.main_bin >= 0) != (ks.main_weight > 0)):
        findings.append(Finding(
            "histogram-mass", "main_bin presence disagrees with main_weight"
        ))
    if np.any(base_present != mapped):
        findings.append(Finding(
            "histogram-mass",
            "base_bin presence disagrees with mapped pages",
            {"pages": int(np.count_nonzero(base_present != mapped))},
        ))
    if np.any(ks.meta.sub_count < 0) or np.any(ks.meta.huge_count < 0):
        findings.append(Finding(
            "histogram-mass", "negative page access counter"
        ))
    return findings


def check_promotion_queue(ctx: CheckContext) -> List[Finding]:
    """Promotable queue entries must be capacity-tier mapping reps.

    Stale entries (unmapped or already promoted) are legal: the queue
    is pruned lazily at drain time.  What must never happen is the
    drain loop acting on a non-representative -- a capacity-mapped vpn
    with a live bin that is the *interior* of a huge mapping would be
    migrated with the wrong shape.
    """
    ks = ctx.ksampled
    if ks is None or not ks.promotion_queue:
        return []
    findings = []
    space = ctx.space
    queue = np.fromiter(ks.promotion_queue, dtype=np.int64)
    out_of_range = queue[(queue < 0) | (queue >= space.num_vpns)]
    for vpn in out_of_range[:8].tolist():
        findings.append(Finding(
            "promotion-queue", "queued vpn outside the address space",
            {"vpn": int(vpn)},
        ))
    queue = queue[(queue >= 0) & (queue < space.num_vpns)]
    promotable = (
        (space.page_tier[queue] > FASTEST_TIER)
        & (ks.main_bin[queue] >= 0)
    )
    non_rep = promotable & space.page_huge[queue] & (queue % SUBPAGES_PER_HUGE != 0)
    for vpn in queue[non_rep][:8].tolist():
        findings.append(Finding(
            "promotion-queue",
            "promotable queue entry is not a mapping representative",
            {"vpn": int(vpn)},
        ))
    return findings


def check_split_bookkeeping(ctx: CheckContext) -> List[Finding]:
    """``split_hpns`` tracks exactly queued-or-currently-split ranges."""
    km = ctx.kmigrated
    if km is None:
        return []
    findings = []
    space = ctx.space
    queue = km.split_queue
    if len(queue) != len(set(queue)):
        findings.append(Finding(
            "split-bookkeeping", "duplicate hpns in split_queue",
            {"queue_len": len(queue), "unique": len(set(queue))},
        ))
    missing = [h for h in queue if h not in km.split_hpns]
    if missing:
        findings.append(Finding(
            "split-bookkeeping",
            "split_queue entry not tracked in split_hpns",
            {"hpns": missing[:8]},
        ))
    queued = set(queue)
    for hpn in sorted(km.split_hpns - queued):
        if not 0 <= hpn < space.num_hpns:
            findings.append(Finding(
                "split-bookkeeping", "split_hpns entry outside address space",
                {"hpn": hpn},
            ))
            continue
        head = hpn_to_vpn(hpn)
        sl = slice(head, head + SUBPAGES_PER_HUGE)
        if space.page_huge[head]:
            # The classic leak: a stale entry on a (re)huge-mapped slot
            # permanently blocks consider_split from ever re-splitting it.
            findings.append(Finding(
                "split-bookkeeping",
                "split_hpns entry refers to a huge-mapped slot that is "
                "not queued for split",
                {"hpn": hpn},
            ))
        elif np.all(space.page_tier[sl] < 0):
            findings.append(Finding(
                "split-bookkeeping",
                "split_hpns entry survived a region free (range fully "
                "unmapped)",
                {"hpn": hpn},
            ))
    return findings


def check_tlb_coherence(ctx: CheckContext) -> List[Finding]:
    """Every TLB entry translates a live mapping of the right size."""
    tlb = ctx.tlb
    if tlb is None:
        return []
    findings = []
    space = ctx.space
    for row in tlb._tlb_4k.sets:
        for vpn in row:
            if not 0 <= vpn < space.num_vpns or space.page_tier[vpn] < 0:
                findings.append(Finding(
                    "tlb-coherence", "stale 4K TLB entry for unmapped vpn",
                    {"vpn": vpn},
                ))
            elif space.page_huge[vpn]:
                findings.append(Finding(
                    "tlb-coherence", "4K TLB entry for a huge-mapped vpn",
                    {"vpn": vpn},
                ))
    for row in tlb._tlb_2m.sets:
        for hpn in row:
            head = hpn_to_vpn(hpn)
            if (not 0 <= hpn < space.num_hpns
                    or not space.page_huge[head]
                    or space.page_tier[head] < 0):
                findings.append(Finding(
                    "tlb-coherence", "stale 2M TLB entry for non-huge slot",
                    {"hpn": hpn},
                ))
    return findings


@dataclass(frozen=True)
class _Check:
    name: str
    fn: Callable[[CheckContext], List[Finding]]


#: Registry, in execution order (cheap structural checks first).
CHECKS = (
    _Check("tier-accounting", check_tier_accounting),
    _Check("mapping-shape", check_mapping_shape),
    _Check("histogram-mass", check_histogram_mass),
    _Check("promotion-queue", check_promotion_queue),
    _Check("split-bookkeeping", check_split_bookkeeping),
    _Check("tlb-coherence", check_tlb_coherence),
)


class Sanitizer:
    """Runs the invariant catalogue at the configured sites.

    The engine calls :meth:`after_batch` / :meth:`after_epoch` /
    :meth:`at_end`; which of those actually check is decided by the
    :class:`CheckLevel`.  :meth:`run_checks` is the direct entry point
    for tests and tooling.
    """

    def __init__(self, level, *, space, tiers, tlb=None, policy=None,
                 tracer=None, counters=None,
                 checks: Optional[tuple] = None):
        self.level = parse_check_level(level)
        self.ctx = CheckContext(space=space, tiers=tiers, tlb=tlb,
                                policy=policy)
        self.tracer = tracer
        self.checks = CHECKS if checks is None else checks
        self._c_passes = None
        self._c_findings = None
        if counters is not None:
            scope = counters.scope("check")
            self._c_passes = scope.counter("passes")
            self._c_findings = scope.counter("findings")

    def run_checks(self, site: str = "manual", now_ns: float = 0.0) -> None:
        """Run every applicable check; raise on any finding."""
        findings: List[Finding] = []
        for check in self.checks:
            findings.extend(check.fn(self.ctx))
        if findings:
            if self._c_findings is not None:
                self._c_findings.inc(len(findings))
            tail = ()
            if self.tracer is not None and getattr(self.tracer, "enabled", False):
                tail = self.tracer.events()[-TRACE_TAIL_EVENTS:]
            raise InvariantViolation(findings, site=site, now_ns=now_ns,
                                     trace_tail=tail)
        if self._c_passes is not None:
            self._c_passes.inc()

    # -- engine hooks ------------------------------------------------------

    def after_batch(self, now_ns: float) -> None:
        if self.level >= CheckLevel.STRICT:
            self.run_checks("batch", now_ns)

    def after_epoch(self, now_ns: float) -> None:
        if self.level >= CheckLevel.EPOCH:
            self.run_checks("epoch", now_ns)

    def at_end(self, now_ns: float) -> None:
        if self.level >= CheckLevel.END:
            self.run_checks("end", now_ns)
