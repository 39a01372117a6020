#!/usr/bin/env python3
"""Crash recovery, end to end, on both storage organizations.

Act 1 — the solid-state machine: run a compile workload with periodic
metadata checkpoints, kill the power mid-session, put fresh batteries
in, and watch the OS rebuild the file system by scanning the flash
log's summary areas and replaying the last checkpoint.

Act 2 — the conventional disk machine: crash the volatile buffer cache
mid-session, remount, and run fsck to repair the inconsistent on-disk
image (the 1993 ritual the solid-state design eliminates).

Run:  python examples/crash_recovery_demo.py
"""

from repro import MobileComputer, Organization, SystemConfig
from repro.analysis.report import format_kv, human_bytes
from repro.fs import ConventionalFileSystem, fsck

MB = 1024 * 1024


def act_one_solid_state() -> None:
    print("=== Act 1: solid-state machine, total battery failure ===\n")
    machine = MobileComputer(
        SystemConfig(
            organization=Organization.SOLID_STATE,
            dram_bytes=6 * MB,
            flash_bytes=24 * MB,
            checkpoint_interval_s=20.0,  # bound metadata loss to ~20 s
            seed=3,
        )
    )
    machine.run_workload("compile", duration_s=90.0, sync_at_end=False)
    files_before = machine.fs.file_count()
    dirty = machine.manager.buffer.buffered_bytes

    machine.inject_battery_failure()  # the laptop hits the floor
    lost = machine.stats.counter("bytes_lost_to_power_failure").value
    print(f"power lost with {machine.fs.file_count()} files known, "
          f"{human_bytes(dirty)} dirty in DRAM -> {human_bytes(lost)} destroyed")

    report = machine.reboot_after_power_loss()
    print(
        format_kv(
            [
                ("checkpoint found", report.checkpoint_found),
                ("generation", report.generation),
                ("files recovered", f"{report.files} of {files_before}"),
                ("blocks lost with DRAM", report.lost_blocks),
                ("stale blocks pruned", report.pruned_blocks),
                ("recovery time", f"{report.recovery_time_s * 1e3:.1f} ms"),
            ],
            title="recovery report (flash log scan + checkpoint replay)",
        )
    )
    # Life goes on.
    machine.fs.write_file("/postmortem.txt", b"everything important survived")
    print("post-recovery write:", machine.fs.read_file("/postmortem.txt").decode())
    print()


def act_two_disk() -> None:
    print("=== Act 2: disk machine, buffer-cache crash + fsck ===\n")
    machine = MobileComputer(
        SystemConfig(
            organization=Organization.DISK,
            dram_bytes=6 * MB,
            disk_bytes=48 * MB,
            seed=3,
        )
    )
    machine.run_workload("compile", duration_s=60.0, sync_at_end=False)
    dirty = machine.cache.dirty_blocks
    lost = machine.cache.crash()
    print(f"cache crash: {dirty} dirty blocks cached, {lost} lost before reaching the disk")

    machine.fs = ConventionalFileSystem(machine.cache)  # remount
    before = fsck(machine.fs)
    print(f"fsck finds {before.problem_count()} inconsistencies "
          f"({len(before.leaked_blocks)} leaked blocks, "
          f"{len(before.dangling_dirents)} dangling entries, "
          f"{len(before.orphaned_inodes)} orphans)")
    fsck(machine.fs, repair=True)
    after = fsck(machine.fs)
    print(f"after repair: clean={after.clean}")
    print()
    print("moral: the solid-state organization checkpoints metadata into the")
    print("same log as the data, so recovery is a scan -- not an audit.")


def main() -> None:
    act_one_solid_state()
    act_two_disk()


if __name__ == "__main__":
    main()
