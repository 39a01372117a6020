"""Battery-backed DRAM primary storage.

DRAM in this model is what the paper assumes: uniform random-access
read/write with symmetric latency, effectively unlimited endurance, and
contents that survive exactly as long as some battery keeps refresh
running.  The volatility is modelled explicitly -- :meth:`DRAM.power_loss`
destroys contents, and the battery model decides when that is invoked --
because the paper's central stability argument (Section 3.1) is about
*when* battery-backed DRAM may safely hold the only copy of file data.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.devices.base import AccessResult, StorageDevice
from repro.devices.catalog import MB, DRAM_NEC_LOW_POWER, DeviceSpec
from repro.devices.errors import PowerLossError


#: Distinct access sizes per direction whose AccessResult DRAM shares.
#: The buffer cache and metadata touches use a handful of sizes; write
#: buffer charges follow arbitrary write sizes, which would otherwise
#: grow the table by one entry per size.
MAX_SHARED_RESULTS = 64


class DRAM(StorageDevice):
    """A byte-addressable DRAM array."""

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
        """Check, account and trace one access; the single timing path.

        DRAM latency and energy depend only on the direction and
        ``nbytes``, so the first :data:`MAX_SHARED_RESULTS` sizes seen in
        each direction build and validate their frozen
        :class:`AccessResult` once and every later access of that size
        shares it; other sizes get a fresh one.  Power and range checks,
        stats and the trace record still happen on every call.

        Every DRAM touch of the simulation passes here, so the power
        check, the range check and the :class:`DeviceStats` update are
        inlined: the stats fields take the same float additions, in the
        same order, as ``record_read``/``record_write``, and an
        out-of-range access still raises from ``check_range``.
        """
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
        """Timed read returning a zero-copy view of the array.

        Same latency/energy/stats as :meth:`read`; the caller gets a
        ``memoryview`` into the live array instead of a copied ``bytes``
        (cache fills and page installs copy into their own buffer anyway,
        so the intermediate allocation is pure overhead).  The view is
        only valid until the next write to the range.
        """
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
        """All refresh power is gone: contents are destroyed.

        The battery model calls this when both primary and backup
        batteries are exhausted (or on an injected abrupt failure).
        """
        self.powered = False
        self.content_losses += 1
        # A fresh power-up starts with undefined (zeroed) contents.  The
        # same-length slice assignment zeroes in place, so views handed
        # out by read_view stay valid (a resize would raise BufferError).
        self._data[:] = bytes(len(self._data))

    def power_restore(self) -> None:
        """Power returns; contents remain whatever power_loss left them."""
        self.powered = True

    def snapshot_bytes(self) -> bytes:
        """Full contents (used by recovery tests, not by the simulation)."""
        return bytes(self._data)
