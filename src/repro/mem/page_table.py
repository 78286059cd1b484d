"""A 4-level radix page table (x86-64 style) with explicit walk costs.

This is the slow-path source of truth for virtual-to-tier mappings.  The
simulator keeps a vectorised ``page_tier`` mirror for per-batch cost
accounting (see :mod:`repro.mem.address_space`); the radix table is what
TLB misses walk, what split/collapse rewrites, and what consistency tests
check the mirror against.

Layout follows x86-64 4-level paging: PGD -> PUD -> PMD -> PTE, 9 index
bits per level.  A 2 MiB huge page terminates the walk at the PMD level
(3 memory references per walk instead of 4), which is exactly the
address-translation benefit huge pages buy in the paper (§2.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Optional

from repro.mem.pages import SUBPAGES_PER_HUGE

RADIX_BITS = 9
RADIX_MASK = (1 << RADIX_BITS) - 1

#: Page-walk memory references by mapping size (PMD leaf for 2 MiB).
WALK_LEVELS_BASE = 4
WALK_LEVELS_HUGE = 3


@dataclass
class Mapping:
    """Resolved translation for one virtual page.

    ``is_huge`` mappings are attached at the PMD slot and cover 512
    consecutive vpns starting at ``vpn`` (2 MiB aligned).
    """

    vpn: int
    tier: int
    is_huge: bool

    @property
    def walk_levels(self) -> int:
        return WALK_LEVELS_HUGE if self.is_huge else WALK_LEVELS_BASE

    @property
    def num_vpns(self) -> int:
        return SUBPAGES_PER_HUGE if self.is_huge else 1


class _Node:
    """Interior radix node: sparse children keyed by 9-bit index."""

    __slots__ = ("children",)

    def __init__(self):
        self.children: Dict[int, object] = {}


class PageTable:
    """Sparse 4-level radix page table mapping vpns to tiers.

    The table stores :class:`Mapping` leaves.  Base-page leaves hang off a
    PTE-level node; a huge-page leaf occupies the PMD slot directly,
    shadowing all 512 vpns underneath it.
    """

    def __init__(self):
        self._root = _Node()
        self._mapped_vpns = 0
        self._mapped_huge = 0

    # -- index helpers ----------------------------------------------------

    @staticmethod
    def _indices(vpn: int):
        """(pgd, pud, pmd, pte) indices for a 4 KiB vpn."""
        pte = vpn & RADIX_MASK
        pmd = (vpn >> RADIX_BITS) & RADIX_MASK
        pud = (vpn >> (2 * RADIX_BITS)) & RADIX_MASK
        pgd = (vpn >> (3 * RADIX_BITS)) & RADIX_MASK
        return pgd, pud, pmd, pte

    def _pmd_parent(self, vpn: int, create: bool) -> Optional[_Node]:
        """Node whose children are PMD slots for ``vpn`` (the PUD node)."""
        pgd, pud, _pmd, _pte = self._indices(vpn)
        node = self._root
        for idx in (pgd, pud):
            child = node.children.get(idx)
            if child is None:
                if not create:
                    return None
                child = _Node()
                node.children[idx] = child
            node = child
        return node

    # -- queries -----------------------------------------------------------

    @property
    def mapped_vpns(self) -> int:
        """Number of 4 KiB vpns currently mapped (huge counts as 512)."""
        return self._mapped_vpns

    @property
    def mapped_huge_pages(self) -> int:
        return self._mapped_huge

    def lookup(self, vpn: int) -> Optional[Mapping]:
        """Resolve ``vpn``; returns None when unmapped."""
        pud_node = self._pmd_parent(vpn, create=False)
        if pud_node is None:
            return None
        _pgd, _pud, pmd, pte = self._indices(vpn)
        slot = pud_node.children.get(pmd)
        if slot is None:
            return None
        if isinstance(slot, Mapping):  # huge leaf at PMD
            return slot
        leaf = slot.children.get(pte)
        return leaf if isinstance(leaf, Mapping) else None

    def walk(self, vpn: int):
        """Resolve ``vpn`` and report walk cost.

        Returns ``(mapping, levels)``; ``levels`` is the number of
        page-table memory references performed (charged by the TLB-miss
        path even when the walk faults).
        """
        mapping = self.lookup(vpn)
        if mapping is None:
            return None, WALK_LEVELS_BASE
        return mapping, mapping.walk_levels

    def iter_mappings(self) -> Iterator[Mapping]:
        """Yield every leaf mapping (huge leaves yielded once)."""
        stack = [self._root]
        while stack:
            node = stack.pop()
            for child in node.children.values():
                if isinstance(child, Mapping):
                    yield child
                else:
                    stack.append(child)

    # -- updates -----------------------------------------------------------

    def map_base(self, vpn: int, tier: int) -> Mapping:
        """Install a 4 KiB mapping.  The slot must be free."""
        pud_node = self._pmd_parent(vpn, create=True)
        _pgd, _pud, pmd, pte = self._indices(vpn)
        slot = pud_node.children.get(pmd)
        if isinstance(slot, Mapping):
            raise ValueError(f"vpn {vpn} already covered by a huge mapping")
        if slot is None:
            slot = _Node()
            pud_node.children[pmd] = slot
        if pte in slot.children:
            raise ValueError(f"vpn {vpn} already mapped")
        mapping = Mapping(vpn=vpn, tier=tier, is_huge=False)
        slot.children[pte] = mapping
        self._mapped_vpns += 1
        return mapping

    def map_huge(self, vpn: int, tier: int) -> Mapping:
        """Install a 2 MiB mapping at a 2 MiB-aligned, fully free slot."""
        if vpn & (SUBPAGES_PER_HUGE - 1):
            raise ValueError(f"huge mapping vpn {vpn} not 2MiB aligned")
        pud_node = self._pmd_parent(vpn, create=True)
        _pgd, _pud, pmd, _pte = self._indices(vpn)
        slot = pud_node.children.get(pmd)
        if slot is not None:
            if isinstance(slot, Mapping) or slot.children:
                raise ValueError(f"huge slot for vpn {vpn} not empty")
        mapping = Mapping(vpn=vpn, tier=tier, is_huge=True)
        pud_node.children[pmd] = mapping
        self._mapped_vpns += SUBPAGES_PER_HUGE
        self._mapped_huge += 1
        return mapping

    def unmap(self, vpn: int) -> Mapping:
        """Remove the mapping covering ``vpn`` (huge leaves removed whole)."""
        pud_node = self._pmd_parent(vpn, create=False)
        if pud_node is None:
            raise KeyError(f"vpn {vpn} not mapped")
        _pgd, _pud, pmd, pte = self._indices(vpn)
        slot = pud_node.children.get(pmd)
        if isinstance(slot, Mapping):
            del pud_node.children[pmd]
            self._mapped_vpns -= SUBPAGES_PER_HUGE
            self._mapped_huge -= 1
            return slot
        if slot is None or pte not in slot.children:
            raise KeyError(f"vpn {vpn} not mapped")
        mapping = slot.children.pop(pte)
        self._mapped_vpns -= 1
        return mapping

    def set_tier(self, vpn: int, tier: int) -> Mapping:
        """Retarget the mapping covering ``vpn`` to another tier."""
        mapping = self.lookup(vpn)
        if mapping is None:
            raise KeyError(f"vpn {vpn} not mapped")
        mapping.tier = tier
        return mapping

    def split_huge(self, hpn_base_vpn: int, subpage_tiers) -> None:
        """Replace a huge leaf with 512 base leaves at the given tiers.

        ``subpage_tiers`` maps subpage index -> tier index, or None to leave
        that subpage unmapped (the paper frees never-written, all-zero
        subpages during a split, §4.3.3).
        """
        mapping = self.lookup(hpn_base_vpn)
        if mapping is None or not mapping.is_huge:
            raise ValueError(f"vpn {hpn_base_vpn} is not a huge mapping")
        self.unmap(mapping.vpn)
        for sub in range(SUBPAGES_PER_HUGE):
            tier = subpage_tiers[sub]
            if tier is not None:
                self.map_base(mapping.vpn + sub, tier)

    def collapse_huge(self, hpn_base_vpn: int, tier: int) -> None:
        """Replace 512 base leaves with one huge leaf on ``tier``.

        All 512 subpages must currently be mapped as base pages.
        """
        if hpn_base_vpn & (SUBPAGES_PER_HUGE - 1):
            raise ValueError("collapse target not 2MiB aligned")
        for sub in range(SUBPAGES_PER_HUGE):
            mapping = self.lookup(hpn_base_vpn + sub)
            if mapping is None or mapping.is_huge:
                raise ValueError(
                    f"cannot collapse: subpage {sub} not a mapped base page"
                )
        for sub in range(SUBPAGES_PER_HUGE):
            self.unmap(hpn_base_vpn + sub)
        self.map_huge(hpn_base_vpn, tier)
