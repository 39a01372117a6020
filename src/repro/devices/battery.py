"""Battery model: primary cells plus lithium backup.

Paper Section 3.1: "The primary batteries in these systems discharge
gradually and predictably.  They can preserve the contents of main memory
in an otherwise idle system for many days.  A second set of small lithium
batteries often provide a backup power source ... for many hours."

The model captures exactly what the stability argument needs:

- gradual, *accountable* discharge (every joule drawn by devices is
  charged against the bank);
- a two-stage bank (primary then backup) with hot-swap of the primary;
- abrupt failure injection (dropped computer, depleted-by-other-devices),
  after which DRAM contents are lost if and only if the backup is also
  unavailable -- the event that makes flash "essential" for permanence.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, List, Optional


class BatteryState(enum.Enum):
    """Aggregate state of a battery bank."""

    ON_PRIMARY = "on_primary"
    ON_BACKUP = "on_backup"
    DEAD = "dead"


@dataclass
class Battery:
    """A single battery with a fixed energy budget in joules."""

    name: str
    capacity_joules: float
    remaining_joules: float = -1.0
    failed: bool = False

    def __post_init__(self) -> None:
        if self.capacity_joules < 0:
            raise ValueError(f"{self.name}: capacity must be non-negative")
        if self.remaining_joules < 0:
            self.remaining_joules = self.capacity_joules

    @property
    def exhausted(self) -> bool:
        return self.failed or self.remaining_joules <= 0.0

    def drain(self, joules: float) -> float:
        """Draw energy; returns the unmet portion (0 when fully supplied)."""
        if joules < 0:
            raise ValueError("cannot drain negative energy")
        if self.exhausted:
            return joules
        supplied = min(joules, self.remaining_joules)
        self.remaining_joules -= supplied
        return joules - supplied

    def fail(self) -> None:
        """Abrupt failure: remaining charge becomes unavailable."""
        self.failed = True

    def fraction_remaining(self) -> float:
        if self.capacity_joules == 0:
            return 0.0
        return max(0.0, self.remaining_joules / self.capacity_joules)


class BatteryBank:
    """Primary + lithium-backup power source for a mobile computer.

    Components draw energy through :meth:`draw`.  When both stages are
    exhausted the bank transitions to ``DEAD`` and fires its power-loss
    callbacks (the DRAM registers one to destroy its contents -- the
    paper's data-loss scenario).
    """

    name = "battery-bank"

    def __init__(self, primary_joules: float, backup_joules: float) -> None:
        self.primary = Battery(f"{self.name}.primary", primary_joules)
        self.backup = Battery(f"{self.name}.backup", backup_joules)
        self._power_loss_callbacks: List[Callable[[], None]] = []
        self._dead_announced = False
        # Simulated time at which power was fully lost, if ever.
        self.death_time: Optional[float] = None

    @property
    def state(self) -> BatteryState:
        if not self.primary.exhausted:
            return BatteryState.ON_PRIMARY
        if not self.backup.exhausted:
            return BatteryState.ON_BACKUP
        return BatteryState.DEAD

    @property
    def powered(self) -> bool:
        return self.state is not BatteryState.DEAD

    def on_power_loss(self, callback: Callable[[], None]) -> None:
        """Register a callback fired exactly once when the bank dies."""
        self._power_loss_callbacks.append(callback)

    def draw(self, joules: float, now: float = 0.0) -> float:
        """Draw energy, primary first, then backup.

        Returns the unmet energy.  Any unmet demand means the machine
        browned out; the bank announces power loss.
        """
        if joules < 0:
            raise ValueError("cannot draw negative energy")
        unmet = self.primary.drain(joules)
        if unmet > 0:
            unmet = self.backup.drain(unmet)
        if unmet > 0:
            self._announce_death(now)
        return unmet

    def remaining_joules(self) -> float:
        total = 0.0
        if not self.primary.failed:
            total += self.primary.remaining_joules
        if not self.backup.failed:
            total += self.backup.remaining_joules
        return total

    def survival_time(self, load_watts: float) -> float:
        """Seconds the bank can sustain a constant load.

        With the NEC DRAM's ~1.5 mW/MB self-refresh, a few-hundred-kJ
        primary pack holds an idle system's memory for *days* and a small
        lithium backup for *hours* -- the paper's Section 3.1 numbers.
        """
        if load_watts <= 0:
            raise ValueError("load must be positive")
        return self.remaining_joules() / load_watts

    def fail_primary(self, now: float = 0.0) -> None:
        """Inject abrupt primary failure (e.g. the computer was dropped)."""
        self.primary.fail()
        if self.backup.exhausted:
            self._announce_death(now)

    def fail_all(self, now: float = 0.0) -> None:
        """Inject total power failure."""
        self.primary.fail()
        self.backup.fail()
        self._announce_death(now)

    def swap_primary(self, new_capacity_joules: float) -> None:
        """Replace the primary pack (the backup carries DRAM meanwhile)."""
        self.primary = Battery(f"{self.name}.primary", new_capacity_joules)
        self._dead_announced = self.state is BatteryState.DEAD

    def _announce_death(self, now: float) -> None:
        if self._dead_announced:
            return
        self._dead_announced = True
        self.death_time = now
        for callback in self._power_loss_callbacks:
            callback()
