"""Optional flash compression (paper Section 5: "improve space utilization").

The authors' follow-up work ("Storage Alternatives for Mobile
Computers", OSDI '94) evaluated compressing data on its way to flash to
stretch the scarce, expensive megabytes.  This module adds that
extension to the storage manager:

- blocks are compressed (real zlib -- the data path stays verifiable)
  as they leave the DRAM write buffer for flash;
- a small self-describing header marks each stored blob as compressed
  or raw (incompressible data is stored raw rather than grown), so the
  format survives crash recovery;
- 1993-realistic CPU costs are charged against the simulated clock: a
  386/25-class laptop compressed at single-digit MB/s.

Trade-offs the compression ablation (experiment X1) measures:
less flash traffic and more effective capacity, bought with CPU time on
every flush and read miss.  Compressed blocks also cannot be
memory-mapped in place (their flash bytes are not the file bytes) --
the file system transparently falls back to fault-in mappings.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from typing import Tuple

from repro.sim.clock import SimClock
from repro.sim.stats import StatRegistry

_HEADER = struct.Struct("<2sI")  # tag, original length
_TAG_COMPRESSED = b"RZ"
_TAG_RAW = b"RW"
HEADER_BYTES = _HEADER.size


@dataclass(frozen=True)
class CompressionSpec:
    """CPU-cost model for a 1993 mobile processor."""

    compress_bytes_per_s: float = 3.0e6
    decompress_bytes_per_s: float = 8.0e6
    level: int = 6

    def validate(self) -> None:
        if self.compress_bytes_per_s <= 0 or self.decompress_bytes_per_s <= 0:
            raise ValueError("throughputs must be positive")
        if not 1 <= self.level <= 9:
            raise ValueError("zlib level must be in [1, 9]")


class BlockCompressor:
    """Compresses blocks on the buffer->flash path, timed."""

    def __init__(
        self,
        clock: SimClock,
        spec: CompressionSpec = CompressionSpec(),
        cpu=None,
    ) -> None:
        """``cpu`` (a :class:`repro.devices.cpu.CPU`) is charged for the
        compression compute so its energy reaches the battery model."""
        spec.validate()
        self.clock = clock
        self.spec = spec
        self.cpu = cpu
        self.stats = StatRegistry("compressor")

    def _charge(self, seconds: float) -> None:
        self.clock.advance(seconds)
        if self.cpu is not None:
            self.cpu.busy(seconds)

    def encode(self, data: bytes) -> bytes:
        """Compress (or wrap raw) one block; charges CPU time."""
        if not data:
            raise ValueError("cannot encode an empty block")
        self._charge(len(data) / self.spec.compress_bytes_per_s)
        packed = zlib.compress(data, self.spec.level)
        self.stats.counter("bytes_in").add(len(data))
        if len(packed) + HEADER_BYTES < len(data):
            out = _HEADER.pack(_TAG_COMPRESSED, len(data)) + packed
            self.stats.counter("blocks_compressed").add(1)
        else:
            # Incompressible: store raw so the block never grows much.
            out = _HEADER.pack(_TAG_RAW, len(data)) + data
            self.stats.counter("blocks_stored_raw").add(1)
        self.stats.counter("bytes_out").add(len(out))
        return out

    def decode(self, blob: bytes) -> bytes:
        """Reverse :meth:`encode`; charges CPU time for compressed blobs."""
        if len(blob) < HEADER_BYTES:
            raise ValueError("blob too short to carry a compression header")
        tag, original_len = _HEADER.unpack(blob[:HEADER_BYTES])
        body = blob[HEADER_BYTES:]
        if tag == _TAG_RAW:
            if len(body) != original_len:
                raise ValueError("raw blob length mismatch")
            return body
        if tag != _TAG_COMPRESSED:
            raise ValueError(f"unknown compression tag {tag!r}")
        data = zlib.decompress(body)
        if len(data) != original_len:
            raise ValueError("decompressed length mismatch")
        self._charge(len(data) / self.spec.decompress_bytes_per_s)
        self.stats.counter("bytes_decoded").add(len(data))
        return data

    def space_ratio(self) -> float:
        """Stored bytes per input byte (lower is better)."""
        bytes_in = self.stats.counter("bytes_in").value
        if bytes_in == 0:
            return 1.0
        return self.stats.counter("bytes_out").value / bytes_in
