"""Baselines: alternative schedulers (§7) and vendor reference implementations (§5.1)."""

from repro.baselines.search import (
    ScheduleSearchResult,
    run_evolutionary_search,
    run_greedy_search,
    run_random_search,
)
from repro.baselines.vendor import VendorBaselines, VendorTimings

__all__ = [
    "ScheduleSearchResult",
    "run_random_search",
    "run_greedy_search",
    "run_evolutionary_search",
    "VendorBaselines",
    "VendorTimings",
]
