"""Exponential technology-trend model.

Paper Section 2 (citing Patterson & Hennessy):

- "The megabytes per dollar of DRAM increases by 40% a year, compared to
  25% for disk."  Starting from a 10x cost gap (a 20 MB DRAM package
  costs ten times a 20 MB drive), the gap closes over time.
- "The megabytes per cubic inch of DRAM also increase by 40% a year,
  compared to 25% for disk."  NEC DRAM is already at 15 MB/in^3 vs the
  KittyHawk's 19 MB/in^3, so density parity is imminent.
- "Some estimates predict that, for 40-megabyte configurations, the cost
  per megabyte of flash memory will match that of magnetic disks by the
  year 1996", with flash tracking DRAM's improvement rate.

The model is deliberately simple -- compounding exponentials and their
crossovers -- because that *is* the paper's argument; the experiment
regenerates its numbers rather than replacing them with hindsight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List

from repro.devices.catalog import (
    DISK_HP_KITTYHAWK,
    DRAM_NEC_LOW_POWER,
    FLASH_PAPER_NOMINAL,
)


@dataclass(frozen=True)
class TrendLine:
    """One metric improving by a fixed factor per year."""

    name: str
    base_year: int
    base_value: float
    annual_improvement: float  # 0.40 => +40%/year

    def value(self, year: float) -> float:
        if self.annual_improvement <= -1.0:
            raise ValueError("annual improvement must exceed -100%")
        return self.base_value * (1.0 + self.annual_improvement) ** (year - self.base_year)


def crossover_year(a: TrendLine, b: TrendLine) -> float:
    """Year when trend ``a`` catches trend ``b`` (a starts lower, grows faster).

    Solves a.value(y) == b.value(y).  Raises if the lines never cross in
    forward time (parallel or diverging).
    """
    ga = math.log(1.0 + a.annual_improvement)
    gb = math.log(1.0 + b.annual_improvement)
    if abs(ga - gb) < 1e-12:
        raise ValueError("trends grow at the same rate; no crossover")
    # a.base * e^{ga (y - ya)} = b.base * e^{gb (y - yb)}
    lhs = math.log(b.base_value) - math.log(a.base_value) + ga * a.base_year - gb * b.base_year
    year = lhs / (ga - gb)
    return year


#: The years the cost and density tables cover.
TABLE_YEARS = range(1993, 2001)

#: The small store whose flash/disk cost parity E2 asks about.
PARITY_CAPACITY_MB = 40.0


@dataclass(frozen=True)
class TrendSet:
    """The 1993 trend lines the paper extrapolates."""

    dram_mb_per_dollar: TrendLine
    disk_mb_per_dollar: TrendLine
    flash_mb_per_dollar: TrendLine
    dram_mb_per_cubic_inch: TrendLine
    disk_mb_per_cubic_inch: TrendLine

    def cost_table(self) -> List[Dict]:
        rows = []
        for year in TABLE_YEARS:
            rows.append(
                {
                    "year": year,
                    "dram_dollars_per_mb": 1.0 / self.dram_mb_per_dollar.value(year),
                    "flash_dollars_per_mb": 1.0 / self.flash_mb_per_dollar.value(year),
                    "disk_dollars_per_mb": 1.0 / self.disk_mb_per_dollar.value(year),
                }
            )
        return rows

    def density_table(self) -> List[Dict]:
        rows = []
        for year in TABLE_YEARS:
            rows.append(
                {
                    "year": year,
                    "dram_mb_per_in3": self.dram_mb_per_cubic_inch.value(year),
                    "disk_mb_per_in3": self.disk_mb_per_cubic_inch.value(year),
                }
            )
        return rows

    def dram_disk_cost_crossover(self) -> float:
        return crossover_year(self.dram_mb_per_dollar, self.disk_mb_per_dollar)

    def dram_disk_density_crossover(self) -> float:
        return crossover_year(self.dram_mb_per_cubic_inch, self.disk_mb_per_cubic_inch)

    def flash_disk_cost_crossover(self) -> float:
        return crossover_year(self.flash_mb_per_dollar, self.disk_mb_per_dollar)


def default_trends_1993() -> TrendSet:
    """Trend lines anchored at the paper's 1993 data points.

    MB/$ values are the reciprocals of the catalog's $/MB figures; growth
    rates are the paper's 40%/yr (semiconductor, with flash tracking
    DRAM) and 25%/yr (disk).
    """
    return TrendSet(
        dram_mb_per_dollar=TrendLine(
            "DRAM MB/$", 1993, 1.0 / DRAM_NEC_LOW_POWER.dollars_per_mb, 0.40
        ),
        disk_mb_per_dollar=TrendLine(
            "disk MB/$", 1993, 1.0 / DISK_HP_KITTYHAWK.dollars_per_mb, 0.25
        ),
        flash_mb_per_dollar=TrendLine(
            "flash MB/$", 1993, 1.0 / FLASH_PAPER_NOMINAL.dollars_per_mb, 0.40
        ),
        dram_mb_per_cubic_inch=TrendLine(
            "DRAM MB/in^3", 1993, DRAM_NEC_LOW_POWER.density_mb_per_cubic_inch, 0.40
        ),
        disk_mb_per_cubic_inch=TrendLine(
            "disk MB/in^3", 1993, DISK_HP_KITTYHAWK.density_mb_per_cubic_inch, 0.25
        ),
    )


@dataclass(frozen=True)
class SmallConfigCostModel:
    """Whole-configuration cost for a small (e.g. 40 MB) store.

    Small drives carry a large *fixed* cost (spindle, heads, electronics)
    that no capacity scaling removes -- "the advantage offered by small
    disks like the KittyHawk will amount to at best a few dollars per
    drive".  Flash is purely per-megabyte.  The 1996-parity estimate the
    paper relays from Intel only works under this floor plus the
    aggressive ~55%/yr flash cost decline manufacturers projected;
    experiment E2 reports both readings.
    """

    flash_dollars_per_mb_1993: float = 50.0
    flash_annual_decline: float = 0.55  # manufacturers' projection
    disk_fixed_dollars_1993: float = 140.0
    disk_fixed_annual_decline: float = 0.12
    disk_media_dollars_per_mb_1993: float = 2.0
    disk_media_annual_decline: float = 0.20

    def flash_cost(self, capacity_mb: float, year: float) -> float:
        per_mb = self.flash_dollars_per_mb_1993 * (1.0 - self.flash_annual_decline) ** (
            year - 1993
        )
        return per_mb * capacity_mb

    def disk_cost(self, capacity_mb: float, year: float) -> float:
        fixed = self.disk_fixed_dollars_1993 * (1.0 - self.disk_fixed_annual_decline) ** (
            year - 1993
        )
        media = (
            self.disk_media_dollars_per_mb_1993
            * (1.0 - self.disk_media_annual_decline) ** (year - 1993)
        )
        return fixed + media * capacity_mb

    def parity_year(self) -> float:
        """First year (bisection, fractional) flash undercuts the disk for
        a :data:`PARITY_CAPACITY_MB` store."""
        capacity_mb = PARITY_CAPACITY_MB
        lo, hi = 1993.0, 2015.0
        if self.flash_cost(capacity_mb, lo) <= self.disk_cost(capacity_mb, lo):
            return lo
        if self.flash_cost(capacity_mb, hi) > self.disk_cost(capacity_mb, hi):
            raise ValueError("no parity before 2015 under these assumptions")
        for _ in range(60):
            mid = (lo + hi) / 2.0
            if self.flash_cost(capacity_mb, mid) > self.disk_cost(capacity_mb, mid):
                lo = mid
            else:
                hi = mid
        return hi
