"""Storage and power device models.

This package models the 1993-era hardware the paper reasons about:

- :mod:`repro.devices.dram` -- battery-backed DRAM primary storage.
- :mod:`repro.devices.flash` -- direct-mapped flash: erase-before-write,
  bounded endurance, per-bank blocking of reads during erase/program.
- :mod:`repro.devices.disk` -- small mobile magnetic disks with seek,
  rotation, and spin-down power management.
- :mod:`repro.devices.battery` -- primary + lithium backup batteries with
  discharge accounting and injectable failures.
- :mod:`repro.devices.catalog` -- the exact data-sheet parameters the
  paper cites (NEC DRAM, Intel and SunDisk flash, HP KittyHawk and
  Fujitsu disks).

All devices store real bytes, so file-system correctness tests can verify
data integrity end-to-end, and every operation charges a latency and an
energy: each access takes the caller's clock and advances it itself (see
:mod:`repro.devices.base`).
"""

from repro.devices.base import DeviceStats, StorageDevice
from repro.devices.battery import Battery, BatteryBank, BatteryState
from repro.devices.catalog import (
    DeviceSpec,
    DISK_FUJITSU_M2633,
    DISK_HP_KITTYHAWK,
    DRAM_NEC_LOW_POWER,
    FLASH_INTEL_SERIES2,
    FLASH_PAPER_NOMINAL,
    FLASH_SUNDISK_SDI,
    catalog_specs,
)
from repro.devices.cpu import CPU
from repro.devices.disk import MagneticDisk
from repro.devices.dram import DRAM
from repro.devices.errors import (
    DeviceError,
    EraseFailedError,
    OutOfRangeError,
    PowerCutError,
    PowerLossError,
    ProgramFailedError,
    WriteBeforeEraseError,
)
from repro.devices.flash import FlashMemory

__all__ = [
    "DeviceStats",
    "StorageDevice",
    "DRAM",
    "FlashMemory",
    "MagneticDisk",
    "CPU",
    "Battery",
    "BatteryBank",
    "BatteryState",
    "DeviceSpec",
    "catalog_specs",
    "DRAM_NEC_LOW_POWER",
    "FLASH_INTEL_SERIES2",
    "FLASH_PAPER_NOMINAL",
    "FLASH_SUNDISK_SDI",
    "DISK_HP_KITTYHAWK",
    "DISK_FUJITSU_M2633",
    "DeviceError",
    "OutOfRangeError",
    "WriteBeforeEraseError",
    "PowerLossError",
    "ProgramFailedError",
    "EraseFailedError",
    "PowerCutError",
]
