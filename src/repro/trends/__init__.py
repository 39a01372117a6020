"""Technology trend extrapolation (paper Section 2, experiment E2)."""

from repro.trends.model import (
    TrendLine,
    TrendSet,
    crossover_year,
    default_trends_1993,
)

__all__ = [
    "TrendLine",
    "TrendSet",
    "crossover_year",
    "default_trends_1993",
]
