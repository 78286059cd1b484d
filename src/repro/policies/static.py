"""Static reference configurations: no tiering decisions at all.

``AllCapacityPolicy`` pins everything to the slowest tier; run on an
all-capacity machine it is the paper's normalisation baseline ("all-NVM
case with THP enabled", §6.1).  ``AllFastPolicy`` pins everything to
DRAM; run on an all-fast machine it is Fig. 7's "All-DRAM" reference.
"""

from __future__ import annotations

from repro.mem.tiers import FASTEST_TIER
from repro.policies.base import TieringPolicy, Traits


class AllCapacityPolicy(TieringPolicy):
    """Place and keep every page on the slowest (capacity) tier."""

    name = "all-capacity"
    traits = Traits(
        mechanism="none",
        subpage_tracking=False,
        promotion_metric="-",
        demotion_metric="-",
        threshold_criteria="-",
        critical_path_migration="none",
        page_size_handling="THP default",
    )

    def choose_alloc_tier(self, nbytes: int) -> int:
        return self.ctx.tiers.slowest_index


class AllFastPolicy(TieringPolicy):
    """Place and keep every page on the fast tier."""

    name = "all-fast"
    traits = Traits(
        mechanism="none",
        subpage_tracking=False,
        promotion_metric="-",
        demotion_metric="-",
        threshold_criteria="-",
        critical_path_migration="none",
        page_size_handling="THP default",
    )

    def choose_alloc_tier(self, nbytes: int) -> int:
        return FASTEST_TIER
