"""System configuration.

A :class:`SystemConfig` is a complete, validated description of one
mobile computer: which storage organization it uses, how big each device
is, and which storage-manager policies are active.  Experiments build
several configs differing in one knob and compare the resulting
:class:`~repro.core.metrics.RunMetrics`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.devices.catalog import (
    DISK_HP_KITTYHAWK,
    DRAM_NEC_LOW_POWER,
    FLASH_PAPER_NOMINAL,
    MB,
)
from repro.storage.wear import WearPolicy

#: Flash banks in the data-flash array.
FLASH_BANKS = 4
#: Buffer cache of the conventional organizations (comes out of DRAM).
CACHE_BYTES = 1 * MB
#: DRAM reserved for kernel metadata, never a page frame.
VM_RESERVED_BYTES = 256 * 1024


class Organization(enum.Enum):
    """The storage organizations experiment E12 compares."""

    #: The paper's proposal: memory-resident FS, DRAM write buffer,
    #: log-structured flash with cleaning and wear leveling.
    SOLID_STATE = "solid_state"
    #: Conventional: block FS + buffer cache on a magnetic disk.
    DISK = "disk"
    #: Conventional block FS on flash through a log-structured FTL.
    FLASH_DISK = "flash_disk"
    #: Conventional block FS on flash with naive erase-in-place writes.
    FLASH_EIP = "flash_eip"
    #: Memory-resident FS but *no* write buffer and an in-place flash
    #: store: what you get if you ignore the paper's advice.
    NAIVE_FLASH = "naive_flash"


@dataclass(frozen=True)
class SystemConfig:
    """Everything needed to build a :class:`MobileComputer`."""

    organization: Organization = Organization.SOLID_STATE

    # Capacities.
    dram_bytes: int = 4 * MB
    flash_bytes: int = 16 * MB
    disk_bytes: int = 40 * MB
    program_flash_bytes: int = 2 * MB  # XIP program area (own chip)

    # Flash policies.
    wear_policy: WearPolicy = WearPolicy.DYNAMIC

    # Storage manager.
    write_buffer_bytes: int = 1 * MB
    buffer_age_limit_s: float = 30.0
    flush_interval_s: float = 5.0
    # Metadata checkpoint cadence for the memory-resident FS (0 = only
    # on explicit checkpoint() calls).  Checkpoints bound what a total
    # power failure can lose to roughly one interval of metadata churn.
    checkpoint_interval_s: float = 0.0
    # Compress blocks on the buffer-to-flash path (space-for-CPU trade;
    # the compression ablation, experiment X1).
    compress_flash: bool = False

    # Power.
    primary_battery_joules: float = 40_000.0  # ~8 NiCd AA cells
    backup_battery_joules: float = 2_000.0  # lithium coin cells

    seed: int = 0

    def validate(self) -> None:
        if self.dram_bytes <= 0:
            raise ValueError("dram_bytes must be positive")
        uses_flash = self.organization is not Organization.DISK
        if uses_flash and self.flash_bytes <= 0:
            raise ValueError("flash organizations need flash_bytes > 0")
        if self.organization is Organization.DISK and self.disk_bytes <= 0:
            raise ValueError("disk organization needs disk_bytes > 0")
        reserved = VM_RESERVED_BYTES + self._dram_consumers()
        if reserved >= self.dram_bytes:
            raise ValueError(
                f"DRAM too small: {self.dram_bytes} bytes cannot hold "
                f"{reserved} bytes of buffer/cache/reserve"
            )

    def _dram_consumers(self) -> int:
        if self.organization in (Organization.SOLID_STATE, Organization.NAIVE_FLASH):
            return self.write_buffer_bytes
        return CACHE_BYTES

    def vm_frame_bytes(self) -> int:
        """DRAM left for page frames after buffers and reserve."""
        return self.dram_bytes - self._dram_consumers() - VM_RESERVED_BYTES

    def storage_budget_dollars(self) -> float:
        """What this machine's storage complement costs (paper Section 4)."""
        cost = DRAM_NEC_LOW_POWER.dollars_per_mb * self.dram_bytes / MB
        if self.organization is Organization.DISK:
            cost += DISK_HP_KITTYHAWK.dollars_per_mb * self.disk_bytes / MB
        else:
            cost += FLASH_PAPER_NOMINAL.dollars_per_mb * (
                (self.flash_bytes + self.program_flash_bytes) / MB
            )
        return cost
