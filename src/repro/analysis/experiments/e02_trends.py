"""E2 -- technology trend extrapolation (paper Section 2).

Claims regenerated:

- DRAM MB/$ grows 40%/yr vs disk 25%/yr, so DRAM cost "will become
  comparable" to disk (crossover year reported).
- DRAM density (40%/yr) passes disk density (25%/yr) "shortly" --
  anchored at 15 vs 19 MB/in^3 the crossover lands mid-decade.
- "For 40-megabyte configurations, the cost per megabyte of flash
  memory will match that of magnetic disks by the year 1996" -- true
  under the manufacturers' assumptions (aggressive flash decline plus
  the small-drive fixed-cost floor); the conservative per-MB rates alone
  put it much later.  Both readings are reported.
"""

from __future__ import annotations

from repro.analysis.experiments.base import ExperimentResult
from repro.trends.model import SmallConfigCostModel, default_trends_1993


def run(quick: bool = False) -> ExperimentResult:
    del quick
    trends = default_trends_1993()
    small = SmallConfigCostModel()

    rows = []
    for cost_row, density_row in zip(
        trends.cost_table(), trends.density_table()
    ):
        year = cost_row["year"]
        rows.append(
            [
                year,
                cost_row["dram_dollars_per_mb"],
                cost_row["flash_dollars_per_mb"],
                cost_row["disk_dollars_per_mb"],
                density_row["dram_mb_per_in3"],
                density_row["disk_mb_per_in3"],
                small.flash_cost(40.0, year),
                small.disk_cost(40.0, year),
            ]
        )

    result = ExperimentResult(
        experiment_id="E2",
        title="Technology trends 1993-2000 (paper growth rates)",
        headers=[
            "year",
            "DRAM $/MB",
            "flash $/MB",
            "disk $/MB",
            "DRAM MB/in^3",
            "disk MB/in^3",
            "flash 40MB $",
            "disk 40MB $",
        ],
        rows=rows,
    )
    density_x = trends.dram_disk_density_crossover()
    cost_x = trends.dram_disk_cost_crossover()
    parity = small.parity_year()
    result.notes.append(
        f"DRAM density passes disk density in {density_x:.1f} (paper: 'shortly')"
    )
    result.notes.append(
        f"DRAM $/MB matches disk in {cost_x:.1f} under 40%/25% rates "
        "(paper: 'will become comparable', no date given)"
    )
    result.notes.append(
        f"40 MB flash/disk config-cost parity: {parity:.1f} under the "
        "manufacturers' assumptions (paper relays 'by the year 1996'); the "
        f"conservative per-MB rates alone give {trends.flash_disk_cost_crossover():.1f}"
    )
    return result
