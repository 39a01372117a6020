"""Deterministic, seedable device-fault injection.

A :class:`FaultPlan` declares *what* can go wrong and how often; a
:class:`FaultInjector` attaches to a :class:`~repro.devices.flash.FlashMemory`
and makes it happen at exact, reproducible points:

- **bit flips** — with probability ``bit_flip_per_read`` a read flips one
  stored bit inside the range being read (persistent medium corruption,
  the way read disturb and retention loss present);
- **program/erase failures** — with the configured rates an operation
  raises :class:`~repro.devices.errors.ProgramFailedError` /
  :class:`EraseFailedError`; a ``permanent_fraction`` of failures mark
  the sector bad forever (every later program/erase there fails too),
  the rest succeed on retry;
- **power cuts** — the injector counts every device operation and, when
  the count reaches ``power_cut_at_op``, raises
  :class:`~repro.devices.errors.PowerCutError`.  With ``torn_ops`` a cut
  mid-program lands a prefix of the data (marking the whole range
  programmed — the untouched bits are in an unknown state) and a cut
  mid-erase scrambles the sector, exactly the torn states crash
  recovery must tolerate.

Everything draws from one :func:`~repro.sim.rand.substream`, so a given
``(plan, workload)`` pair replays bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Set

from repro.devices.errors import EraseFailedError, PowerCutError, ProgramFailedError
from repro.devices.flash import FlashMemory
from repro.obs import runtime as obs_runtime
from repro.sim.rand import substream


@dataclass(frozen=True)
class FaultPlan:
    """Declarative description of the faults to inject."""

    seed: int = 0
    #: Probability that a read flips one stored bit in the range read.
    bit_flip_per_read: float = 0.0
    #: Probability that a program operation fails.
    program_fail_rate: float = 0.0
    #: Probability that an erase operation fails.
    erase_fail_rate: float = 0.0
    #: Fraction of program/erase failures that are permanent (bad block).
    permanent_fraction: float = 0.0
    #: Cut power when the device-operation counter reaches this value
    #: (1-based: ``1`` cuts on the very first operation); None disables.
    power_cut_at_op: Optional[int] = None
    #: Whether a power cut tears the in-flight operation (partial program
    #: / scrambled erase) or lands between operations.
    torn_ops: bool = True

    def validate(self) -> None:
        for name in ("bit_flip_per_read", "program_fail_rate", "erase_fail_rate",
                     "permanent_fraction"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.power_cut_at_op is not None and self.power_cut_at_op < 1:
            raise ValueError("power_cut_at_op is 1-based; must be >= 1")


class FaultInjector:
    """Executes a :class:`FaultPlan` against one flash device."""

    def __init__(self, plan: FaultPlan) -> None:
        plan.validate()
        self.plan = plan
        self.rng = substream(plan.seed, "fault-injector")
        self.op_count = 0
        self.armed = True
        self.cut_fired = False
        #: Sectors with a permanent program/erase failure: the physical
        #: truth about the device, surviving any host-side crash.
        self.bad_sectors: Set[int] = set()
        self.counters: Dict[str, int] = {
            "bit_flips": 0,
            "program_failures": 0,
            "erase_failures": 0,
            "permanent_failures": 0,
            "power_cuts": 0,
        }
        # Optional repro.obs.Tracer (the one active at construction);
        # every injected fault emits a "faults" trace record when set,
        # so torture runs are analyzable with repro.obs.analyze.
        self.tracer = obs_runtime.get_tracer()

    def _emit(
        self,
        op: str,
        now: float,
        nbytes: int = 0,
        outcome: str = "injected",
        detail: Optional[dict] = None,
    ) -> None:
        if self.tracer is not None:
            self.tracer.emit("faults", op, now, nbytes, outcome=outcome, detail=detail)

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------

    def attach(self, flash: FlashMemory) -> "FaultInjector":
        flash.injector = self
        return self

    def disarm(self) -> None:
        """Stop injecting new faults (bad sectors stay bad: they are
        physical damage, not injector state)."""
        self.armed = False

    # ------------------------------------------------------------------
    # Hooks called by FlashMemory.
    # ------------------------------------------------------------------

    def _tick(self, flash: FlashMemory, kind: str, now: float) -> None:
        """Count one device operation; fire the scheduled power cut."""
        self.op_count += 1
        plan = self.plan
        if (
            plan.power_cut_at_op is not None
            and not self.cut_fired
            and self.op_count >= plan.power_cut_at_op
        ):
            self.cut_fired = True
            self.counters["power_cuts"] += 1
            self._emit(
                "power_cut", now, outcome="cut",
                detail={"op": self.op_count, "during": kind},
            )
            raise PowerCutError(flash.name, self.op_count)

    def on_read(
        self, flash: FlashMemory, offset: int, nbytes: int, now: float = 0.0
    ) -> None:
        if not self.armed:
            return
        self._tick(flash, "read", now)
        if self.plan.bit_flip_per_read and self.rng.bernoulli(self.plan.bit_flip_per_read):
            victim = offset + self.rng.randint(0, nbytes - 1)
            bit = self.rng.randint(0, 7)
            flash.fault_flip_bit(victim, bit)
            self.counters["bit_flips"] += 1
            self._emit(
                "bit_flip", now, 1,
                detail={"offset": victim, "bit": bit,
                        "sector": flash.sector_of(victim)},
            )

    def on_program(
        self, flash: FlashMemory, offset: int, data: bytes, now: float = 0.0
    ) -> None:
        if not self.armed:
            return
        sector = flash.sector_of(offset)
        try:
            self._tick(flash, "program", now)
        except PowerCutError as cut:
            if self.plan.torn_ops:
                torn = self.rng.randint(0, len(data))
                flash.fault_apply_torn_program(offset, data, torn)
                self._emit(
                    "torn_program", now, torn, outcome="torn",
                    detail={"sector": sector, "intended": len(data)},
                )
                raise PowerCutError(flash.name, cut.op_index, torn_bytes=torn) from None
            raise
        if sector in self.bad_sectors:
            self.counters["program_failures"] += 1
            self._emit(
                "program_fail", now, len(data), outcome="permanent",
                detail={"sector": sector, "bad_block": True},
            )
            raise ProgramFailedError(flash.name, sector, transient=False)
        if self.plan.program_fail_rate and self.rng.bernoulli(self.plan.program_fail_rate):
            self.counters["program_failures"] += 1
            if self.rng.bernoulli(self.plan.permanent_fraction):
                self.bad_sectors.add(sector)
                self.counters["permanent_failures"] += 1
                self._emit(
                    "program_fail", now, len(data), outcome="permanent",
                    detail={"sector": sector},
                )
                raise ProgramFailedError(flash.name, sector, transient=False)
            self._emit(
                "program_fail", now, len(data), outcome="transient",
                detail={"sector": sector},
            )
            raise ProgramFailedError(flash.name, sector, transient=True)

    def on_erase(self, flash: FlashMemory, sector: int, now: float = 0.0) -> None:
        if not self.armed:
            return
        try:
            self._tick(flash, "erase", now)
        except PowerCutError as cut:
            if self.plan.torn_ops:
                chunk = bytes(self.rng.randint(0, 255) for _ in range(256))
                reps = -(-flash.sector_bytes // len(chunk))
                flash.fault_scramble_sector(sector, (chunk * reps)[: flash.sector_bytes])
                self._emit(
                    "torn_erase", now, outcome="torn", detail={"sector": sector},
                )
                raise PowerCutError(
                    flash.name, cut.op_index, torn_erase=True
                ) from None
            raise
        if sector in self.bad_sectors:
            self.counters["erase_failures"] += 1
            self._emit(
                "erase_fail", now, outcome="permanent",
                detail={"sector": sector, "bad_block": True},
            )
            raise EraseFailedError(flash.name, sector, transient=False)
        if self.plan.erase_fail_rate and self.rng.bernoulli(self.plan.erase_fail_rate):
            self.counters["erase_failures"] += 1
            if self.rng.bernoulli(self.plan.permanent_fraction):
                self.bad_sectors.add(sector)
                self.counters["permanent_failures"] += 1
                self._emit(
                    "erase_fail", now, outcome="permanent",
                    detail={"sector": sector},
                )
                raise EraseFailedError(flash.name, sector, transient=False)
            self._emit(
                "erase_fail", now, outcome="transient", detail={"sector": sector},
            )
            raise EraseFailedError(flash.name, sector, transient=True)
