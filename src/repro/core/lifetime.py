"""Flash lifetime projection (experiment E9).

The device dies, for practical purposes, when its hottest sector burns
through its endurance guarantee.  Given a finite observation window we
project forward:

    lifetime = endurance / (erases of the worst sector per second)

Wear leveling's entire value proposition is pushing the worst sector's
rate down toward the mean: perfect leveling gives

    max_lifetime = endurance * num_sectors / (total erase rate)

so the ratio of the two is a direct score for a leveling policy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class LifetimeProjection:
    """Projected flash lifetime under the observed workload."""

    observed_seconds: float
    total_erases: int
    max_sector_erases: int
    mean_sector_erases: float
    endurance: int
    projected_seconds: float  # until the hottest sector wears out
    ideal_seconds: float  # under perfect leveling of the same traffic
    leveling_efficiency: float  # projected / ideal, in (0, 1]

    @property
    def projected_days(self) -> float:
        return self.projected_seconds / 86_400.0


def lifetime_projection(summary: dict, observed_seconds: float) -> LifetimeProjection:
    """Project lifetime from the wear a run has accumulated, given as a
    :meth:`~repro.devices.flash.FlashMemory.wear_summary` (live, or read
    back from a MetricsHub snapshot)."""
    if observed_seconds <= 0:
        raise ValueError("observation window must be positive")
    total = int(summary["total_erases"])
    max_erases = int(summary["max_erases"])
    mean = float(summary["mean_erases_per_sector"])
    endurance = summary["endurance"] or 0

    if total == 0 or endurance == 0:
        infinite = math.inf
        return LifetimeProjection(
            observed_seconds=observed_seconds,
            total_erases=total,
            max_sector_erases=max_erases,
            mean_sector_erases=mean,
            endurance=endurance,
            projected_seconds=infinite,
            ideal_seconds=infinite,
            leveling_efficiency=1.0,
        )

    worst_rate = max_erases / observed_seconds  # erases/s on hottest sector
    projected = endurance / worst_rate if worst_rate > 0 else math.inf
    total_rate = total / observed_seconds
    ideal = (endurance * summary["sectors"]) / total_rate
    efficiency = projected / ideal if ideal > 0 else 1.0
    return LifetimeProjection(
        observed_seconds=observed_seconds,
        total_erases=total,
        max_sector_erases=max_erases,
        mean_sector_erases=mean,
        endurance=endurance,
        projected_seconds=projected,
        ideal_seconds=ideal,
        leveling_efficiency=min(1.0, efficiency),
    )
