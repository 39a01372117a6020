#!/usr/bin/env python3
"""Palmtop/PIM scenario: a Sharp Wizard-class organizer with a battery swap.

A tiny personal information manager -- 1 MB of DRAM, 4 MB of flash --
runs its record-update workload, then the user swaps the primary
batteries mid-session: the lithium backup carries DRAM through the swap,
so nothing is lost (paper Section 3.1).  Afterwards we inject an abrupt
total battery failure and show that exactly the write-buffer residue
dies while everything flushed to flash survives.

Run:  python examples/pim_device.py
"""

from repro import MobileComputer, Organization, SystemConfig
from repro.analysis.report import format_kv, human_bytes

KB = 1024
MB = 1024 * 1024


def main() -> None:
    config = SystemConfig(
        organization=Organization.SOLID_STATE,
        dram_bytes=1 * MB,
        flash_bytes=4 * MB,
        program_flash_bytes=512 * KB,
        write_buffer_bytes=128 * KB,
        buffer_age_limit_s=10.0,  # PIMs flush aggressively
        flush_interval_s=2.0,
        primary_battery_joules=15_000.0,  # two AA cells
        backup_battery_joules=400.0,  # lithium coin cell
        seed=7,
    )
    machine = MobileComputer(config)

    report, metrics = machine.run_workload("pim", duration_s=300.0, sync_at_end=False)
    print(
        format_kv(
            [
                ("records replayed", report.records),
                ("bytes written by apps", human_bytes(report.bytes_written)),
                ("write-traffic reduction", f"{metrics.write_traffic_reduction:.0%}"),
                ("battery remaining", f"{machine.battery.primary.fraction_remaining():.2%}"),
            ],
            title="five minutes of PIM use",
        )
    )
    print()

    # --- The battery swap: backup carries DRAM. -------------------------
    dirty_before = machine.manager.buffer.buffered_bytes
    machine.battery.fail_primary(machine.clock.now)  # pull the AA cells
    assert machine.battery.powered, "backup must carry the machine"
    machine.battery.swap_primary(15_000.0)  # insert fresh cells
    print(
        f"battery swap: backup carried {human_bytes(dirty_before)} of dirty "
        f"data; state now {machine.battery.state.value}, nothing lost"
    )

    # --- Abrupt total failure (the computer is dropped). ----------------
    dirty = machine.manager.buffer.buffered_bytes
    machine.inject_battery_failure()
    lost = machine.stats.counter("bytes_lost_to_power_failure").value
    print(
        f"abrupt failure: {human_bytes(dirty)} were dirty in DRAM, "
        f"{human_bytes(lost)} lost; all flash-resident records survive"
    )
    live = machine.manager.store.allocator.occupancy()["live_bytes"]
    print(f"flash still holds {human_bytes(live)} of live data")


if __name__ == "__main__":
    main()
