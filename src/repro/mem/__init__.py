"""Memory substrate: tiers, pages, address spaces, TLB, migration.

This package models the hardware/kernel memory machinery that MEMTIS (and
every baseline tiering policy) runs on top of:

* :mod:`repro.mem.tiers` -- tier specifications and capacity-bounded
  frame accounting for an ordered hierarchy of tiers (index 0 = fastest
  DRAM, downward through CXL/NVM/remote as configured).
* :mod:`repro.mem.pages` -- constants for base/huge pages (including the
  page-walk depth of each: 3 levels for 2 MiB mappings, 4 for 4 KiB) and
  metadata tables holding per-page access statistics.
* :mod:`repro.mem.tlb` -- a split 4K/2M set-associative TLB with LRU
  replacement and shootdown accounting.
* :mod:`repro.mem.address_space` -- virtual address space with region
  allocation, THP mapping, the per-page ``page_tier``/``page_huge``
  arrays that record every mapping, and RSS accounting (including
  huge-page bloat).
* :mod:`repro.mem.migration` -- the migration engine used by the
  background daemons and by critical-path (fault-time) migrations.
"""

from repro.mem.tiers import (
    FASTEST_TIER,
    TIER_UNMAPPED,
    UNMAPPED_LABEL,
    MemoryTier,
    TieredMemory,
    TierSpec,
    tier_label,
)
from repro.mem.pages import (
    BASE_PAGE_SIZE,
    HUGE_PAGE_SIZE,
    SUBPAGES_PER_HUGE,
    WALK_LEVELS_BASE,
    WALK_LEVELS_HUGE,
    vpn_to_hpn,
    hpn_to_vpn,
)
from repro.mem.tlb import TLB, TLBConfig, TLBStats
from repro.mem.address_space import AddressSpace, Region
from repro.mem.migration import MigrationEngine, MigrationStats

__all__ = [
    "FASTEST_TIER",
    "TIER_UNMAPPED",
    "UNMAPPED_LABEL",
    "tier_label",
    "TierSpec",
    "MemoryTier",
    "TieredMemory",
    "BASE_PAGE_SIZE",
    "HUGE_PAGE_SIZE",
    "SUBPAGES_PER_HUGE",
    "vpn_to_hpn",
    "hpn_to_vpn",
    "WALK_LEVELS_BASE",
    "WALK_LEVELS_HUGE",
    "TLB",
    "TLBConfig",
    "TLBStats",
    "AddressSpace",
    "Region",
    "MigrationEngine",
    "MigrationStats",
]
