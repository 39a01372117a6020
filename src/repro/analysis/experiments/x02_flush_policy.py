"""X2 (ablation) -- the write-buffer durability/traffic frontier.

DESIGN.md calls out the flush policy as a load-bearing design choice:
the buffer absorbs more traffic the longer it may hold data, but
everything it holds is exactly what a battery failure destroys (E11).
This ablation sweeps the age limit and reports both sides of the trade
so the frontier is explicit:

    traffic reduction (performance, wear)  vs  mean exposed bytes (risk)
"""

from __future__ import annotations

from repro.analysis.experiments.base import ExperimentResult
from repro.core.config import Organization, SystemConfig
from repro.core.hierarchy import MobileComputer

KB = 1024
MB = 1024 * 1024

AGE_LIMITS = [2.0, 5.0, 15.0, 30.0, 60.0, 120.0]


def run_one(age_limit_s: float, duration: float, seed: int) -> list:
    config = SystemConfig(
        organization=Organization.SOLID_STATE,
        dram_bytes=6 * MB,
        flash_bytes=16 * MB,
        buffer_age_limit_s=age_limit_s,
        flush_interval_s=max(1.0, min(5.0, age_limit_s / 3)),
        seed=seed,
    )
    machine = MobileComputer(config)
    _report, m = machine.run_workload("office", duration_s=duration, sync_at_end=False)
    snapshot = machine.hub.snapshot(machine.clock.now)
    occupancy = snapshot["components"]["writebuffer"]["gauges"]["occupancy_bytes"]
    return [
        age_limit_s,
        m.write_traffic_reduction,
        occupancy["average"] / KB,
        occupancy["current"] / KB,
        m.flash_bytes_programmed / MB,
    ]


def run(quick: bool = False, seed: int = 0) -> ExperimentResult:
    duration = 90.0 if quick else 300.0
    result = ExperimentResult(
        experiment_id="X2",
        title="Ablation: write-buffer age limit (traffic cut vs exposure)",
        headers=[
            "age_limit_s",
            "reduction",
            "avg_dirty_KB",
            "dirty_at_end_KB",
            "flash_MB",
        ],
        rows=[run_one(age, duration, seed) for age in AGE_LIMITS],
    )
    rows = result.row_dicts()
    lo, hi = rows[0], rows[-1]
    result.notes.append(
        f"raising the age limit {lo['age_limit_s']:.0f}s -> {hi['age_limit_s']:.0f}s lifts "
        f"traffic reduction {lo['reduction']:.0%} -> {hi['reduction']:.0%} while "
        f"multiplying the data a battery failure can destroy "
        f"({lo['avg_dirty_KB']:.0f} KB -> {hi['avg_dirty_KB']:.0f} KB on average)"
    )
    result.notes.append(
        "the knee sits near the workload's data half-life (~10-30 s for the "
        "office mix -- the same constant Baker '91 measured), which is why "
        "the classic 30-second sync was a reasonable default"
    )
    return result
