"""Property test: DRAM accesses against the two-step accesses they replaced.

Every DRAM access -- ``charge_read``/``charge_write`` and the data-moving
``read``/``read_view``/``write`` -- takes the caller's clock and does a
whole touch in one call: power check, range check, stats, trace record
and clock advance.  Each used to return a (partly shared)
``AccessResult`` that every caller passed back to ``clock.advance``.  The
oracle below is that earlier ``DRAM`` copied verbatim, driven the way its
callers drove it.  Random sequences of charges, data-moving accesses, out-of-range
requests and power loss/restore go through both, with and without a
tracer, and after every step both must agree bit for bit on the raised
error, the latency and wait returned, the ``DeviceStats``, the clock and
the trace records.
"""

from __future__ import annotations

from typing import Dict, Tuple

from hypothesis import given, settings, strategies as st

from repro.devices.base import StorageDevice
from repro.devices.catalog import MB, DRAM_NEC_LOW_POWER, DeviceSpec
from repro.devices.dram import DRAM
from repro.devices.errors import DeviceError, PowerLossError
from repro.obs import Tracer, runtime
from repro.sim.clock import SimClock
from tests._access_result import AccessResult

KB = 1024
CAPACITY = 64 * KB
MAX_SHARED_RESULTS = 64


class _OracleDRAM(StorageDevice):
    """``DRAM`` before its charges advanced the clock, verbatim."""

    def __init__(
        self,
        capacity_bytes: int,
        spec: DeviceSpec = DRAM_NEC_LOW_POWER,
        name: str = "dram",
        battery_backed: bool = True,
    ) -> None:
        if spec.kind != "dram":
            raise ValueError(f"spec {spec.name!r} is not a DRAM spec")
        super().__init__(
            name,
            capacity_bytes,
            idle_power_watts=spec.idle_power_w_per_mb * (capacity_bytes / MB),
        )
        self.spec = spec
        self.battery_backed = battery_backed
        self.powered = True
        self._data = bytearray(capacity_bytes)
        # Number of times contents have been lost to power failure.
        self.content_losses = 0
        # Shared AccessResult per access size, one dict per direction.
        self._read_results: Dict[int, AccessResult] = {}
        self._write_results: Dict[int, AccessResult] = {}

    def _access(self, write: bool, nbytes: int, offset: int, now: float, op: str) -> AccessResult:
        if not self.powered:
            raise PowerLossError(self.name, "DRAM is unpowered")
        if offset < 0 or nbytes < 0 or offset + nbytes > self.capacity_bytes:
            self.check_range(offset, nbytes)
        results = self._write_results if write else self._read_results
        result = results.get(nbytes)
        if result is None:
            spec = self.spec
            if write:
                latency = spec.write_overhead_s + spec.write_per_byte_s * nbytes
                power = spec.active_write_power_w
            else:
                latency = spec.read_overhead_s + spec.read_per_byte_s * nbytes
                power = spec.active_read_power_w
            result = AccessResult(latency=latency, energy=power * latency)
            if len(results) < MAX_SHARED_RESULTS:
                results[nbytes] = result
        stats = self.stats
        if write:
            stats.writes += 1
            stats.bytes_written += nbytes
        else:
            stats.reads += 1
            stats.bytes_read += nbytes
        stats.busy_time += result.latency - result.wait
        stats.wait_time += result.wait
        stats.energy_joules += result.energy
        if self.tracer is not None:
            self.tracer.emit(self.name, op, now, nbytes, result.latency)
        return result

    def read(self, offset: int, nbytes: int, now: float) -> Tuple[bytes, AccessResult]:
        result = self._access(False, nbytes, offset, now, "read")
        return bytes(self._data[offset : offset + nbytes]), result

    def read_view(self, offset: int, nbytes: int, now: float) -> Tuple[memoryview, AccessResult]:
        result = self._access(False, nbytes, offset, now, "read")
        return memoryview(self._data)[offset : offset + nbytes], result

    def charge_read(self, nbytes: int, now: float, offset: int = 0) -> AccessResult:
        """Latency+energy of a read, no data movement (accounting only)."""
        return self._access(False, nbytes, offset, now, "charge_read")

    def charge_write(self, nbytes: int, now: float, offset: int = 0) -> AccessResult:
        """Latency+energy of a write, contents untouched (accounting only)."""
        return self._access(True, nbytes, offset, now, "charge_write")

    def write(self, offset: int, data: bytes, now: float) -> AccessResult:
        result = self._access(True, len(data), offset, now, "write")
        self._data[offset : offset + len(data)] = data
        return result

    def power_loss(self) -> None:
        self.powered = False
        self.content_losses += 1
        self._data[:] = bytes(len(self._data))

    def power_restore(self) -> None:
        self.powered = True


def _hex(value):
    return value.hex() if isinstance(value, float) else value


def _timing(latency: float, wait: float):
    return (latency.hex(), wait.hex())


def _apply(dram, clock: SimClock, op, one_call: bool):
    """Run ``op``; return what it gave back or the error it raised.  With
    ``one_call`` the device advances ``clock``; otherwise the caller
    advances it by the returned result's latency."""
    kind, nbytes, offset = op
    try:
        if kind in ("charge_read", "charge_write"):
            charge = getattr(dram, kind)
            if one_call:
                return ("ok", charge(nbytes, clock, offset))
            clock.advance(charge(nbytes, clock.now, offset).latency)
            return ("ok", None)
        if kind in ("read", "read_view"):
            read = getattr(dram, kind)
            if one_call:
                data, latency, wait = read(offset, nbytes, clock)
            else:
                data, result = read(offset, nbytes, clock.now)
                clock.advance(result.latency)
                latency, wait = result.latency, result.wait
            return ("ok", bytes(data), _timing(latency, wait))
        if kind == "write":
            data = bytes([nbytes % 251]) * nbytes if nbytes >= 0 else b""
            if one_call:
                latency, wait = dram.write(offset, data, clock)
            else:
                result = dram.write(offset, data, clock.now)
                clock.advance(result.latency)
                latency, wait = result.latency, result.wait
            return ("ok", _timing(latency, wait))
        if kind == "power_loss":
            return ("ok", dram.power_loss())
        if kind == "power_restore":
            return ("ok", dram.power_restore())
    except (DeviceError, ValueError) as exc:
        return ("raised", type(exc).__name__, str(exc))
    raise AssertionError(kind)


def _observed(dram, clock: SimClock, tracer):
    stats = {key: _hex(value) for key, value in dram.stats.snapshot().items()}
    records = None
    if tracer is not None:
        records = [tuple(_hex(field) for field in record) for record in tracer.records]
    return clock.now.hex(), stats, records, dram.powered, dram.content_losses


_ACCESS = st.sampled_from(
    ["charge_read", "charge_write", "charge_read", "charge_write",
     "read", "read_view", "write"]
)


@st.composite
def _op(draw):
    kind = draw(st.one_of(
        _ACCESS, _ACCESS, _ACCESS, st.sampled_from(["power_loss", "power_restore"])
    ))
    if kind.startswith("power"):
        return (kind, 0, 0)
    nbytes = draw(st.one_of(
        st.integers(0, 4 * KB),           # in range, many distinct sizes
        st.integers(-2, CAPACITY + 2),    # up to just past either end
    ))
    offset = draw(st.one_of(
        st.just(0),
        st.integers(0, CAPACITY),
        st.integers(-3, CAPACITY + 3),
    ))
    return (kind, nbytes, offset)


@st.composite
def _sequences(draw):
    # A prefix of distinct in-range sizes past the old 64-entry tables,
    # so shared and freshly built results are both compared.
    warm = draw(st.integers(0, 3 * MAX_SHARED_RESULTS))
    first = draw(st.integers(0, 2 * KB))
    prefix = [
        ("charge_write" if i % 2 else "charge_read", first + i, (i * 97) % KB)
        for i in range(warm)
    ]
    return prefix + draw(st.lists(_op(), min_size=1, max_size=80))


@given(
    _sequences(),
    st.booleans(),
    st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
)
@settings(max_examples=150, deadline=None)
def test_one_call_charge_matches_the_two_step_charge(ops, traced, start):
    tracers = (Tracer(), Tracer()) if traced else (None, None)
    with runtime.tracing(tracers[0]):
        lean = DRAM(CAPACITY)
    with runtime.tracing(tracers[1]):
        oracle = _OracleDRAM(CAPACITY)
    lean_clock, oracle_clock = SimClock(start), SimClock(start)
    for op in ops:
        got = _apply(lean, lean_clock, op, one_call=True)
        want = _apply(oracle, oracle_clock, op, one_call=False)
        assert got == want, op
        assert _observed(lean, lean_clock, tracers[0]) == _observed(
            oracle, oracle_clock, tracers[1]
        ), op
    assert bytes(lean._data) == bytes(oracle._data)


def test_sizes_past_the_old_tables_are_charged_exactly():
    """One fixed sweep of 3 x 64 distinct sizes in each direction."""
    lean, oracle = DRAM(CAPACITY), _OracleDRAM(CAPACITY)
    lean_clock, oracle_clock = SimClock(), SimClock()
    for repeat in range(2):
        for nbytes in range(1, 3 * MAX_SHARED_RESULTS):
            for kind in ("charge_read", "charge_write"):
                op = (kind, nbytes * 61 + repeat, nbytes)
                assert _apply(lean, lean_clock, op, True) == _apply(
                    oracle, oracle_clock, op, False
                )
    assert len(oracle._write_results) == MAX_SHARED_RESULTS
    assert _observed(lean, lean_clock, None) == _observed(oracle, oracle_clock, None)
