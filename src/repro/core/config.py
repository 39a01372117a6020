"""System configuration.

A :class:`SystemConfig` is a complete, validated description of one
mobile computer: which storage organization it uses, how big each device
is, and which storage-manager policies are active.  Experiments build
several configs differing in one knob and compare the resulting
:class:`~repro.core.metrics.RunMetrics`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from repro.devices.catalog import (
    DISK_HP_KITTYHAWK,
    DRAM_NEC_LOW_POWER,
    FLASH_PAPER_NOMINAL,
    DeviceSpec,
    MB,
)
from repro.storage.gc import CleaningPolicy
from repro.storage.wear import WearPolicy


class Organization(enum.Enum):
    """The storage organizations experiment E12 compares."""

    #: The paper's proposal: memory-resident FS, DRAM write buffer,
    #: log-structured flash with cleaning/wear-leveling/banks.
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

    # Device specs.
    dram_spec: DeviceSpec = DRAM_NEC_LOW_POWER
    flash_spec: DeviceSpec = FLASH_PAPER_NOMINAL
    disk_spec: DeviceSpec = DISK_HP_KITTYHAWK

    # Flash geometry / policies.
    flash_banks: int = 4
    write_banks: Optional[int] = None  # None => unpartitioned
    wear_policy: WearPolicy = WearPolicy.DYNAMIC
    cleaning_policy: CleaningPolicy = CleaningPolicy.COST_BENEFIT

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

    # Conventional organization.
    cache_bytes: int = 1 * MB  # buffer cache size (comes out of DRAM)
    cache_sync_interval_s: float = 30.0
    disk_spin_down_s: float = 5.0

    # Virtual memory.
    vm_reserved_bytes: int = 256 * 1024  # kernel metadata reserve
    swap_bytes: int = 8 * MB
    fault_overhead_s: float = 50e-6
    tlb_entries: int = 32

    # Power.
    primary_battery_joules: float = 40_000.0  # ~8 NiCd AA cells
    backup_battery_joules: float = 2_000.0  # lithium coin cells
    base_load_watts: float = 0.0  # rest-of-machine draw, if modelled
    power_settle_interval_s: float = 1.0

    seed: int = 0

    def validate(self) -> None:
        if self.dram_bytes <= 0:
            raise ValueError("dram_bytes must be positive")
        uses_flash = self.organization is not Organization.DISK
        if uses_flash and self.flash_bytes <= 0:
            raise ValueError("flash organizations need flash_bytes > 0")
        if self.organization is Organization.DISK and self.disk_bytes <= 0:
            raise ValueError("disk organization needs disk_bytes > 0")
        reserved = self.vm_reserved_bytes + self._dram_consumers()
        if reserved >= self.dram_bytes:
            raise ValueError(
                f"DRAM too small: {self.dram_bytes} bytes cannot hold "
                f"{reserved} bytes of buffer/cache/reserve"
            )
        if self.write_banks is not None and not 1 <= self.write_banks <= self.flash_banks:
            raise ValueError("write_banks outside [1, flash_banks]")

    def _dram_consumers(self) -> int:
        if self.organization in (Organization.SOLID_STATE, Organization.NAIVE_FLASH):
            return self.write_buffer_bytes
        return self.cache_bytes

    def vm_frame_bytes(self) -> int:
        """DRAM left for page frames after buffers and reserve."""
        return self.dram_bytes - self._dram_consumers() - self.vm_reserved_bytes

    def storage_budget_dollars(self) -> float:
        """What this machine's storage complement costs (paper Section 4)."""
        cost = self.dram_spec.dollars_per_mb * self.dram_bytes / MB
        if self.organization is Organization.DISK:
            cost += self.disk_spec.dollars_per_mb * self.disk_bytes / MB
        else:
            cost += self.flash_spec.dollars_per_mb * (
                (self.flash_bytes + self.program_flash_bytes) / MB
            )
        return cost
