"""The physical storage manager facade (paper Section 3.3).

`StorageManager` is what the file system actually talks to.  It wires
together the DRAM write buffer and the log-structured flash store,
implementing the data path the paper describes:

    write  -> battery-backed DRAM buffer -> (age/watermark) -> flash log
    read   -> buffer hit, else direct flash read (uniform access)
    delete -> buffered data dies in DRAM, flash copy invalidated

Every block buffered in DRAM is *stable against crashes but not against
battery death*; the manager exposes exactly that distinction so the
battery experiments (E11) can count what a power failure loses under
each flush policy.
"""

from __future__ import annotations

from typing import Hashable, List, Optional, Union

from repro.obs import runtime as obs_runtime
from repro.sim.clock import SimClock
from repro.sim.stats import StatHandle, StatRegistry
from repro.storage.allocator import OutOfFlashSpace
from repro.storage.compression import BlockCompressor
from repro.storage.flashstore import FlashStore, InPlaceFlashStore
from repro.storage.writebuffer import FlushItem, FlushReason, WriteBuffer


class StorageReadOnlyError(Exception):
    """The manager degraded to read-only mode and refused a write.

    Raised *at the API boundary* (not mid-flush): once erased flash space
    is exhausted, accepting more dirty data would guarantee losing it, so
    new writes are refused while reads — and the data already buffered —
    remain intact.
    """

    def __init__(self, reason: str) -> None:
        super().__init__(f"storage manager is read-only ({reason})")
        self.reason = reason


class StorageManager:
    """Buffering layer between the FS and the flash store."""

    _user_bytes_written = StatHandle(StatRegistry.counter, "user_bytes_written")

    def __init__(
        self,
        clock: SimClock,
        flash_store: Union[FlashStore, InPlaceFlashStore],
        write_buffer: WriteBuffer,
        compressor: Optional[BlockCompressor] = None,
    ) -> None:
        """``compressor`` (optional) compresses blocks on the
        buffer-to-flash path; see :mod:`repro.storage.compression`."""
        self.clock = clock
        self.store = flash_store
        self.buffer = write_buffer
        self.compressor = compressor
        self.stats = StatRegistry("storage-manager")
        self.stats.derived["write_traffic_reduction"] = self.write_traffic_reduction
        # Optional repro.obs.Tracer (the one active at construction);
        # read-only degradation transitions emit a trace record.
        self.tracer = obs_runtime.get_tracer()
        # Items popped from the buffer but not yet persisted: volatile
        # state a power failure loses alongside the buffer itself.
        self._in_flight: List[FlushItem] = []
        self.read_only = False
        self.read_only_reason: Optional[str] = None

    def flush_aged(self) -> None:
        """Persist every buffered block past the buffer's age limit (the
        machine's periodic flush timer)."""
        self._persist_items(self.buffer.flush_aged())

    # ------------------------------------------------------------------
    # Block API used by the file system.
    # ------------------------------------------------------------------

    def _enter_read_only(self, reason: str) -> None:
        if not self.read_only:
            self.read_only = True
            self.read_only_reason = reason
            self.stats.counter("read_only_transitions").add(1)
            if self.tracer is not None:
                # "transition" carries the counter value so the online
                # monitor can assert the transition is single-shot.
                self.tracer.emit(
                    "storage-manager", "read_only", self.clock.now,
                    outcome="degraded",
                    detail={
                        "reason": reason,
                        "transition": int(
                            self.stats.counter("read_only_transitions").value
                        ),
                    },
                )

    def write_block(self, key: Hashable, data: bytes) -> None:
        if self.read_only:
            raise StorageReadOnlyError(self.read_only_reason or "degraded")
        self._user_bytes_written.value += len(data)
        items = self.buffer.put(key, data)
        self._persist_items(items)

    def read_block(self, key: Hashable) -> bytes:
        buffered = self.buffer.get(key)
        if buffered is not None:
            return buffered
        blob = self.store.read_block(key)
        if self.compressor is not None:
            blob = self.compressor.decode(blob)
        return blob

    def delete_block(self, key: Hashable) -> None:
        saved = self.buffer.drop(key)
        if saved:
            self.stats.counter("bytes_died_in_buffer").add(saved)
        if self.store.contains(key):
            self.store.delete_block(key)

    def sync(self) -> int:
        """Flush everything dirty to flash; returns blocks written."""
        if self.read_only:
            return 0
        items = self.buffer.flush_all(FlushReason.SYNC)
        self._persist_items(items)
        return len(items)

    def _restore_items(self, items: List[FlushItem]) -> None:
        for item in items:
            # first_write rides along so the re-buffered block keeps its
            # original age clock (see WriteBuffer.restore).
            self.buffer.restore(item.key, item.data, first_write=item.first_write)

    def _persist_items(self, items: List[FlushItem]) -> None:
        if not items:
            return
        if self.read_only:
            # Degraded: keep the data safe in battery-backed DRAM rather
            # than raising mid-workload; new writes are already refused.
            self._restore_items(items)
            return
        # Prepend any leftovers from an interrupted earlier flush (the
        # caller survived the exception and kept going).
        self._in_flight = self._in_flight + list(items)
        while self._in_flight:
            item = self._in_flight[0]
            data = item.data
            if self.compressor is not None:
                data = self.compressor.encode(data)
            try:
                self.store.write_block(item.key, data)
            except OutOfFlashSpace:
                # Cleaning cannot recover enough erased space: re-buffer
                # everything unpersisted and degrade to read-only rather
                # than throwing away acknowledged data.
                self._enter_read_only("flash erased space exhausted")
                remaining, self._in_flight = self._in_flight, []
                self._restore_items(remaining)
                return
            # Popped only after the store acknowledged the write; any
            # exception above leaves the item in _in_flight, where
            # power_loss() counts it as lost volatile state.
            self._in_flight.pop(0)

    # ------------------------------------------------------------------
    # Power events (experiment E11).
    # ------------------------------------------------------------------

    def power_loss(self) -> int:
        """Battery bank died: dirty buffered data is gone.

        Returns the number of bytes lost (data that existed only in
        battery-backed DRAM).  Blocks already flushed to flash survive.
        Items mid-flush — popped from the buffer but not yet written to
        flash when the power failed — are volatile too and count.
        """
        lost = self.buffer.power_loss()
        in_flight = sum(len(item.data) for item in self._in_flight)
        self._in_flight = []
        if in_flight:
            self.stats.counter("bytes_lost_in_flight").add(in_flight)
        lost += in_flight
        self.stats.counter("bytes_lost_to_power_failure").add(lost)
        return lost

    def shutdown_flush(self) -> int:
        """Orderly shutdown: drain the buffer while power remains."""
        if self.read_only:
            return 0
        items = self.buffer.flush_all(FlushReason.SHUTDOWN)
        self._persist_items(items)
        return len(items)

    # ------------------------------------------------------------------
    # Reporting.
    # ------------------------------------------------------------------

    def write_traffic_reduction(self) -> float:
        """Fraction of user write bytes that never reached flash."""
        user = self.stats.value("user_bytes_written")
        if user == 0:
            return 0.0
        flash_user_bytes = self.store.stats.value("user_bytes_written")
        return 1.0 - (flash_user_bytes / user)
