"""E1 -- the Section 2 device comparison table.

Paper claims regenerated here:

- DRAM is faster than flash memory but somewhat costlier.
- Flash write access times are ~two orders of magnitude above its reads.
- Disk is slower than flash but considerably cheaper.
- Flash has lower power consumption than either DRAM or disk.
- Densities: NEC DRAM 15 MB/in^3, KittyHawk 19 MB/in^3, flash within
  20% of the KittyHawk and about half the Fujitsu 2.5-inch drive.
"""

from __future__ import annotations

from repro.analysis.experiments.base import ExperimentResult
from repro.devices.catalog import (
    DISK_FUJITSU_M2633,
    DISK_HP_KITTYHAWK,
    DRAM_NEC_LOW_POWER,
    FLASH_INTEL_SERIES2,
    FLASH_SUNDISK_SDI,
    MB,
)
from repro.devices.disk import MagneticDisk
from repro.devices.dram import DRAM
from repro.devices.flash import FlashMemory

IO_SIZE = 4096


def _timed_rw(device, offset: int = 0):
    """(read_latency, write_latency) for one 4 KB access on a warm device."""
    if isinstance(device, FlashMemory):
        write = device.program(offset, b"\x00" * IO_SIZE, 0.0).latency
        read = device.read(offset, IO_SIZE, 100.0)[1].latency
        return read, write
    write = device.write(offset, b"\x00" * IO_SIZE, 0.0).latency
    read = device.read(offset, IO_SIZE, 1.0)[1].latency
    return read, write


def run(quick: bool = False) -> ExperimentResult:
    del quick  # E1 is cheap regardless
    rows = []

    dram = DRAM(1 * MB, spec=DRAM_NEC_LOW_POWER)
    r, w = _timed_rw(dram)
    rows.append(_row(DRAM_NEC_LOW_POWER, r, w, erase=None))

    intel = FlashMemory(1 * MB, spec=FLASH_INTEL_SERIES2, banks=1)
    r, w = _timed_rw(intel)
    erase = intel.erase_sector(1, 200.0).latency
    rows.append(_row(FLASH_INTEL_SERIES2, r, w, erase))

    sundisk = FlashMemory(1 * MB, spec=FLASH_SUNDISK_SDI, banks=1)
    r, w = _timed_rw(sundisk)
    erase = sundisk.erase_sector(16, 200.0).latency
    rows.append(_row(FLASH_SUNDISK_SDI, r, w, erase))

    kittyhawk = MagneticDisk(20 * MB, spec=DISK_HP_KITTYHAWK)
    kittyhawk.read(0, 512, 0.0)  # spin it up / position the head
    r, w = _timed_rw(kittyhawk, offset=10 * MB)
    rows.append(_row(DISK_HP_KITTYHAWK, r, w, erase=None))

    fujitsu = MagneticDisk(45 * MB, spec=DISK_FUJITSU_M2633)
    fujitsu.read(0, 512, 0.0)
    r, w = _timed_rw(fujitsu, offset=20 * MB)
    rows.append(_row(DISK_FUJITSU_M2633, r, w, erase=None))

    result = ExperimentResult(
        experiment_id="E1",
        title="1993 storage devices: 4 KB access latency, cost, density, power",
        headers=[
            "device",
            "read_ms",
            "write_ms",
            "erase_ms",
            "$/MB",
            "MB/in^3",
            "active_W",
        ],
        rows=rows,
    )
    by_name = {row[0]: row for row in rows}
    dram_row = by_name[DRAM_NEC_LOW_POWER.name]
    intel_row = by_name[FLASH_INTEL_SERIES2.name]
    kh_row = by_name[DISK_HP_KITTYHAWK.name]
    result.notes.append(
        f"flash write/read latency ratio: {intel_row[2] / intel_row[1]:.0f}x "
        "(paper: two orders of magnitude)"
    )
    result.notes.append(
        f"ordering holds: DRAM read {dram_row[1]:.4f} ms < flash read "
        f"{intel_row[1]:.4f} ms < disk read {kh_row[1]:.3f} ms"
    )
    return result


def _row(spec, read_s: float, write_s: float, erase):
    return [
        spec.name,
        read_s * 1e3,
        write_s * 1e3,
        None if erase is None else erase * 1e3,
        spec.dollars_per_mb,
        spec.density_mb_per_cubic_inch,
        max(spec.active_read_power_w, spec.active_write_power_w),
    ]
