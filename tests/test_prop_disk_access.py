"""Property test: the one-call disk accesses == the ``AccessResult`` path.

:class:`AccountDisk` is ``MagneticDisk`` as it was before its accesses
advanced the caller's clock, kept verbatim: ``read``/``write``/
``charge_*`` took a bare ``now`` and shared ``_account``, which built an
``AccessResult`` (validated in its ``__post_init__``) and recorded it
through ``DeviceStats.record_*``; the mechanics read the spec on every
access; the caller advanced its clock by the result's latency.

``MagneticDisk`` now binds its spec costs at construction and does the
check, the mechanics, the ``DeviceStats`` update, the trace record and
the clock advance in one call, returning ``(latency, wait)`` (after a
read's bytes).  For any sequence of reads, writes and charges -- with
spin-down gaps, out-of-range requests, idle accrual and time going
backwards between accesses, as E1 issues them -- both disks must agree
bit for bit after every step: latency, wait, the clock advance, raised
errors, ``DeviceStats`` floats, the head and spindle state, idle energy,
stored bytes and trace records.  An error charges nothing and leaves the
clock where it was.
"""

from __future__ import annotations

import math
from typing import Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devices.catalog import DISK_FUJITSU_M2633, DISK_HP_KITTYHAWK
from repro.devices.disk import MagneticDisk
from repro.devices.errors import DeviceError
from repro.obs.tracer import Tracer
from repro.sim.clock import SimClock
from tests._access_result import AccessResult, record_read, record_write

KB = 1024
MB = 1024 * KB
CAPACITY = 2 * MB
CYLINDERS = 40


class AccountDisk(MagneticDisk):
    """``MagneticDisk`` with the ``_account``/``AccessResult`` accesses and
    the spec-reading mechanics, kept verbatim."""

    def seek_time(self, from_cyl: int, to_cyl: int) -> float:
        distance = abs(to_cyl - from_cyl)
        if distance == 0:
            return 0.0
        t2t = self.spec.track_to_track_seek_s or 0.0
        max_seek = self.spec.max_seek_s or (self.spec.avg_seek_s or 0.0) * 2
        frac = math.sqrt(distance / (self.cylinders - 1))
        return t2t + (max_seek - t2t) * frac

    def _transfer_time(self, nbytes: int) -> float:
        rate = self.spec.transfer_bytes_per_s or 1.0
        return nbytes / rate

    def _begin_op(self, now: float) -> Tuple[float, float]:
        self.accrue_idle(now)
        delay = 0.0
        energy = 0.0
        if self._is_spun_down(now):
            self.spinning = True
            self.spin_ups += 1
            delay = self.spec.spin_up_s or 0.0
            energy = delay * self.spec.spin_up_power_w
        return delay, energy

    def _account(
        self, op: str, offset: int, nbytes: int, now: float, write: bool
    ) -> AccessResult:
        self.check_range(offset, nbytes)
        spin_delay, spin_energy = self._begin_op(now)
        target = self.cylinder_of(offset)
        seek = self.seek_time(self.head_cylinder, target)
        if seek > 0.0:
            self.seeks += 1
            self.total_seek_time += seek
        self.head_cylinder = target
        overhead = self.spec.write_overhead_s if write else self.spec.read_overhead_s
        service = overhead + seek + self._rotational_latency() + self._transfer_time(nbytes)
        power = self.spec.active_write_power_w if write else self.spec.active_read_power_w
        self._last_op_end = now + spin_delay + service
        # Time covered by the operation is active, not idle.
        self._idle_accounted_to = max(self._idle_accounted_to, self._last_op_end)
        result = AccessResult(
            latency=spin_delay + service,
            energy=spin_energy + power * service,
            wait=spin_delay,
        )
        if write:
            record_write(self.stats, nbytes, result)
        else:
            record_read(self.stats, nbytes, result)
        if self.tracer is not None:
            detail = {"wait": result.wait} if result.wait > 0.0 else None
            self.tracer.emit(self.name, op, now, nbytes, result.latency, detail=detail)
        return result

    def read(self, offset: int, nbytes: int, now: float) -> Tuple[bytes, AccessResult]:
        result = self._account("read", offset, nbytes, now, write=False)
        return bytes(self._data_view(offset, nbytes)), result

    def charge_read(self, nbytes: int, now: float, offset: int = 0) -> AccessResult:
        return self._account("charge_read", offset, nbytes, now, write=False)

    def charge_write(self, nbytes: int, now: float, offset: int = 0) -> AccessResult:
        return self._account("charge_write", offset, nbytes, now, write=True)

    def write(self, offset: int, data: bytes, now: float) -> AccessResult:
        result = self._account("write", offset, len(data), now, write=True)
        self._store(offset, data)
        return result


def _payload(offset: int, nbytes: int) -> bytes:
    return bytes((offset * 7 + i) & 0xFF for i in range(nbytes))


def _apply_old(disk: AccountDisk, op: tuple, now: float):
    """Run ``op`` on the oracle at ``now``; returns its outcome and the
    time the caller's clock reads after advancing by the result."""
    kind, offset, nbytes = op
    try:
        data = None
        if kind == "accrue_idle":
            disk.accrue_idle(now)
            return ("idle",), now
        if kind == "read":
            data, result = disk.read(offset, nbytes, now)
        elif kind == "write":
            result = disk.write(offset, _payload(offset, nbytes), now)
        else:
            result = getattr(disk, kind)(nbytes, now, offset=offset)
    except (DeviceError, ValueError) as exc:
        return ("error", type(exc).__name__, str(exc)), now
    outcome = (result.latency.hex(), result.wait.hex(), data)
    return outcome, SimClock(now).advance(result.latency)


def _apply_new(disk: MagneticDisk, op: tuple, now: float):
    """Run ``op`` on the one-call disk with a clock at ``now``; returns its
    outcome and the time the clock reads after."""
    kind, offset, nbytes = op
    clock = SimClock(now)
    try:
        data = None
        if kind == "accrue_idle":
            disk.accrue_idle(now)
            return ("idle",), clock.now
        if kind == "read":
            data, latency, wait = disk.read(offset, nbytes, clock)
        elif kind == "write":
            latency, wait = disk.write(offset, _payload(offset, nbytes), clock)
        else:
            latency, wait = getattr(disk, kind)(nbytes, clock, offset=offset)
    except (DeviceError, ValueError) as exc:
        return ("error", type(exc).__name__, str(exc)), clock.now
    return (latency.hex(), wait.hex(), data), clock.now


def _state(disk: MagneticDisk) -> tuple:
    """Stats with floats as bit patterns, head and spindle, idle energy."""
    stats = {
        key: value.hex() if isinstance(value, float) else value
        for key, value in disk.stats.snapshot().items()
    }
    return (
        stats, disk.head_cylinder, disk.spinning, disk.spin_ups, disk.seeks,
        disk.total_seek_time.hex(), disk.idle_energy_joules.hex(),
        disk._last_op_end.hex(), disk._idle_accounted_to.hex(),
    )


@st.composite
def _ops(draw):
    """One access (or idle accrual) and the time step before it."""
    kind = draw(st.sampled_from(
        ["read", "read", "write", "write", "charge_read", "charge_write", "accrue_idle"]
    ))
    if draw(st.integers(0, 5)) == 0:
        # Out of range: past either end, or a negative size.
        offset, nbytes = draw(st.sampled_from([
            (-1, 16), (CAPACITY - 8, 9), (CAPACITY, 1), (0, CAPACITY + 1), (64, -1),
        ]))
        if kind == "write" and nbytes < 0:
            nbytes = 1
            offset = CAPACITY
    else:
        offset = draw(st.integers(0, CAPACITY - 1))
        # Sizes straddle the 64 KB backing chunks now and then.
        nbytes = draw(st.integers(0, min(80 * KB, CAPACITY - offset)))
    # Gaps inside and past the spin-down timeout, and steps backwards.
    dt = draw(st.one_of(
        st.sampled_from([0.0, 1e-4, 0.02, 0.5, 3.0, 40.0, -0.01, -1.0]),
        st.floats(min_value=-2.0, max_value=60.0, allow_nan=False),
    ))
    return (kind, offset, nbytes), dt


@st.composite
def _workloads(draw):
    spec = draw(st.sampled_from([DISK_HP_KITTYHAWK, DISK_FUJITSU_M2633]))
    timeout = draw(st.sampled_from([0.5, 2.0, 5.0]))
    spinning = draw(st.booleans())
    start = draw(st.one_of(
        st.sampled_from([0.0, 0.25, 100.0]),
        st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
    ))
    ops = draw(st.lists(_ops(), min_size=1, max_size=40))
    return spec, timeout, spinning, start, ops


@settings(max_examples=150, deadline=None)
@given(_workloads(), st.booleans())
def test_one_call_disk_matches_the_account_path(workload, traced):
    spec, timeout, spinning, start, ops = workload
    disks = [
        cls(CAPACITY, spec=spec, cylinders=CYLINDERS, spin_down_timeout_s=timeout,
            start_spinning=spinning)
        for cls in (MagneticDisk, AccountDisk)
    ]
    for disk in disks:
        disk.tracer = Tracer() if traced else None
    new, old = disks
    now = start
    for op, dt in ops:
        now = max(0.0, now + dt)
        before = _state(new)
        got, got_now = _apply_new(new, op, now)
        want, want_now = _apply_old(old, op, now)
        assert got == want, op
        assert got_now.hex() == want_now.hex(), op
        assert _state(new) == _state(old), op
        if got[0] == "error":
            assert got_now == now
            assert _state(new) == before
        assert new._chunks == old._chunks, op
    if traced:
        assert new.tracer.records == old.tracer.records
