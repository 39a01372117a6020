"""Property tests: ``FlashMemory`` == :class:`tests._reference.FlashModel`
across banks.

``FlashMemory`` does the range check, the bank walk (one bank inline),
the ``DeviceStats`` update, the trace record and the clock advance in one
frame; the reference walks every request bank by bank.  For any
interleaving of reads, charges, programs and erases on 1 KB sectors in 2
or 4 banks -- straddling bank and sector boundaries, with banks kept
busy, into programmed bytes, past the endurance guarantee and, in the
hostile mix, out of range, outside the device and with an injector that
raises before data lands -- both must agree bit for bit after every
step (see :func:`tests._reference.compare`): latency, wait, the clock
after, raised errors, ``DeviceStats``, per-bank busy horizons, stored
bytes, programmed intervals, wear and trace records.
"""

from __future__ import annotations

import dataclasses

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.devices.catalog import FLASH_PAPER_NOMINAL
from repro.devices.errors import DeviceError, EraseFailedError, PowerCutError, ProgramFailedError
from repro.devices.flash import FlashMemory
from repro.obs.tracer import Tracer
from repro.sim.clock import SimClock
from tests._reference import FlashModel, compare, payload

KB = 1024

# Small sectors keep many bank boundaries inside a tiny device; 2 ms
# erases keep banks busy across several operations; a 3-cycle endurance
# lets workloads wear sectors out.
SPEC = dataclasses.replace(
    FLASH_PAPER_NOMINAL, name="bank-walk test flash", erase_sector_bytes=1 * KB,
    erase_latency_s=2e-3, endurance_cycles=3,
)
SECTORS_PER_BANK = 4


class _Raiser:
    """Injector that raises, before any data lands, on the accesses it is
    armed for: a power cut on a read, a transient failure on a program or
    an erase."""

    def __init__(self) -> None:
        self.armed = False

    def _fire(self, error: DeviceError) -> None:
        if self.armed:
            raise error

    def on_read(self, flash, offset, nbytes, now=0.0):
        self._fire(PowerCutError(flash.name, 0))

    def on_program(self, flash, offset, data, now=0.0):
        self._fire(ProgramFailedError(flash.name, offset // flash.sector_bytes, transient=True))

    def on_erase(self, flash, sector, now=0.0):
        self._fire(EraseFailedError(flash.name, sector, transient=True))


@st.composite
def _ranges(draw, capacity: int, bank_bytes: int, out_of_range: bool = False):
    """An (offset, nbytes) inside the device, often straddling a bank edge
    (or, when ``out_of_range`` is drawn, one that leaves the device)."""
    if out_of_range and draw(st.booleans()):
        offset = draw(st.sampled_from([-1, -64, capacity - 8, capacity, capacity + 1]))
        return offset, draw(st.integers(9, 600))
    if draw(st.booleans()):
        edge = bank_bytes * draw(st.integers(1, capacity // bank_bytes - 1))
        offset = edge - draw(st.integers(0, 600))
    else:
        offset = draw(st.integers(0, capacity - 1))
    nbytes = draw(st.integers(0, min(3 * KB, capacity - offset)))
    return offset, nbytes


@st.composite
def _workloads(draw, hostile: bool = False):
    """``hostile`` adds out-of-range accesses, injected failures and
    sector numbers outside the device."""
    banks = draw(st.sampled_from([2, 4]))
    bank_bytes = SECTORS_PER_BANK * SPEC.erase_sector_bytes
    capacity = banks * bank_bytes
    sectors = banks * SECTORS_PER_BANK
    ops = []
    for _ in range(draw(st.integers(1, 40))):
        kind = draw(st.sampled_from(
            ["read", "charge_read", "charge_write", "program", "program", "erase_sector"]
        ))
        if kind == "erase_sector":
            low, high = (-1, sectors) if hostile else (0, sectors - 1)
            op = (kind, draw(st.integers(low, high)), 0)
        else:
            op = (kind,) + draw(_ranges(capacity, bank_bytes, out_of_range=hostile))
        # Small steps keep programs and erases in flight when the next
        # operation arrives; the occasional long step lets banks drain.
        dt = draw(st.sampled_from([0.0, 1e-6, 5e-5, 1e-3, 0.05]))
        fail = hostile and draw(st.integers(0, 5)) == 0
        ops.append((op, dt, fail))
    return banks, capacity, ops


def _run(workload, injector=None):
    banks, capacity, ops = workload
    live = FlashMemory(capacity, spec=SPEC, banks=banks)
    reference = FlashModel(capacity, spec=SPEC, banks=banks)
    for device in (live, reference):
        device.tracer = Tracer()
        device.injector = injector
    now = 0.0
    for op, dt, fail in ops:
        now += dt
        if injector is not None:
            injector.armed = fail
        data = payload(op[1], op[2]) if op[0] == "program" else b""
        compare(live, reference, op, (SimClock(now), SimClock(now)), data)


@settings(max_examples=150, deadline=None)
@given(_workloads())
# An erase behind a busy bank whose wait and erase time do not round-trip:
# (wait + service) - wait != service, so busy time must be latency - wait.
@example((2, 8192, [(("erase_sector", 0, 0), dt, False) for dt in (0.0, 0.0, 1e-4)]))
def test_bank_walk_matches_the_reference(workload):
    _run(workload)


@settings(max_examples=150, deadline=None)
@given(_workloads(hostile=True))
def test_errors_match_the_reference(workload):
    """Errors of every kind -- out of range, write-before-erase, a sector
    outside the device, a failure injected before data lands -- raise the
    same exception, charge nothing and leave the clock where it was."""
    _run(workload, _Raiser())
