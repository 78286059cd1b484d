"""Page-size constants and per-page access-metadata tables.

The paper's unit vocabulary (§2.3, §4.1.2):

* A *base page* is 4 KiB.
* A *huge page* is 2 MiB and consists of ``nr_subpages`` (512) *subpages*,
  each 4 KiB.
* ``vpn`` in this codebase always indexes 4 KiB virtual pages;
  ``hpn = vpn >> 9`` indexes the 2 MiB-aligned huge-page slot containing
  that vpn.

:class:`PageMetadataTable` reproduces the access metadata MEMTIS stores in
the unused ``struct page`` slots of a compound page (§5): an access count
per huge page plus an access count per 4 KiB subpage.  We store them as
flat numpy arrays indexed by hpn/vpn, which keeps cooling (halving every
count) a single vectorised shift, exactly mirroring the paper's
exponential-moving-average semantics.
"""

from __future__ import annotations

import numpy as np

BASE_PAGE_SIZE = 4 * 1024
HUGE_PAGE_SIZE = 2 * 1024 * 1024
SUBPAGES_PER_HUGE = HUGE_PAGE_SIZE // BASE_PAGE_SIZE  # 512
HUGE_SHIFT = 9  # log2(SUBPAGES_PER_HUGE)

#: Page-walk memory references by mapping size, as on x86-64 4-level
#: paging: a 4 KiB translation walks PGD -> PUD -> PMD -> PTE, a 2 MiB
#: one ends at its PMD leaf.  One fewer reference per TLB miss is the
#: translation benefit huge pages buy in the paper (§2.3).
WALK_LEVELS_BASE = 4
WALK_LEVELS_HUGE = 3


def vpn_to_hpn(vpn):
    """Huge-page slot index containing 4 KiB page ``vpn`` (array-friendly)."""
    return vpn >> HUGE_SHIFT


def hpn_to_vpn(hpn):
    """First 4 KiB vpn of huge-page slot ``hpn`` (array-friendly)."""
    return hpn << HUGE_SHIFT


class PageMetadataTable:
    """Per-page access counters for a fixed-size virtual address space.

    Parameters
    ----------
    num_vpns:
        Number of 4 KiB virtual pages covered.  The table allocates one
        32-bit counter per vpn and one per huge-page slot, so the overhead
        is bounded and predictable (the paper bounds its metadata at
        0.195% of the footprint; ours is 8 bytes per 4 KiB page in the
        simulator, which plays the same role).

    Attributes
    ----------
    sub_count:
        Access count of each 4 KiB page.  For a base page this is the
        page's own count; for a subpage of a huge page it is the subpage
        count kept in the compound-page metadata.
    huge_count:
        Access count of each huge-page slot (the compound page's own
        counter).  Only meaningful while the slot is mapped huge.
    """

    def __init__(self, num_vpns: int):
        if num_vpns <= 0:
            raise ValueError(f"num_vpns must be positive, got {num_vpns}")
        self.num_vpns = int(num_vpns)
        self.num_hpns = (self.num_vpns + SUBPAGES_PER_HUGE - 1) >> HUGE_SHIFT
        self.sub_count = np.zeros(self.num_vpns, dtype=np.int64)
        self.huge_count = np.zeros(self.num_hpns, dtype=np.int64)

    def record_accesses(self, vpns: np.ndarray) -> None:
        """Increment counters for each sampled access (vpn may repeat)."""
        np.add.at(self.sub_count, vpns, 1)
        np.add.at(self.huge_count, vpn_to_hpn(vpns), 1)

    def cool(self) -> None:
        """Halve every counter (one EMA step with decay factor 0.5)."""
        self.sub_count >>= 1
        self.huge_count >>= 1

    def reset_range(self, start_vpn: int, num: int) -> None:
        """Zero the counters for a reused virtual range (on free/realloc)."""
        self.sub_count[start_vpn : start_vpn + num] = 0
        start_hpn = start_vpn >> HUGE_SHIFT
        end_hpn = (start_vpn + num + SUBPAGES_PER_HUGE - 1) >> HUGE_SHIFT
        self.huge_count[start_hpn:end_hpn] = 0

    def huge_utilization(self, hpn: int, hot_threshold: int = 1) -> int:
        """Number of subpages of ``hpn`` with count >= ``hot_threshold``.

        This is the paper's huge-page *utilization* U_i (§4.3.2), ranging
        0..512.
        """
        base = hpn_to_vpn(hpn)
        window = self.sub_count[base : base + SUBPAGES_PER_HUGE]
        return int(np.count_nonzero(window >= hot_threshold))
