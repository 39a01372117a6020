"""Trace replay against any file system.

The replayer is the measurement harness most experiments share: one
loop merges one or more client streams by record time, fast-forwards
the event engine to each record's timestamp (so periodic flush/sync
timers fire exactly as they would in a live system), issues the
operation, and collects per-operation latency.

Each record goes straight into the file-system call(s) it stands for:
there is no request object between the trace and the FS, and the op
name that keys the latency histogram comes from the same branch that
issued the call.

Payload bytes are generated deterministically from (path, offset), so a
replay on two different organizations writes identical data -- and reads
can be verified against an independent model if desired.
"""

from __future__ import annotations

import dataclasses
import zlib
from collections import defaultdict
from dataclasses import dataclass, field
from heapq import heapify, heappop, heapreplace
from random import Random
from typing import Callable, Dict, Iterable, Sequence

from repro.fs.api import FileSystem
from repro.sim.engine import Engine
from repro.sim.stats import Histogram
from repro.trace.model import OpType, TraceRecord


#: Two periods of the byte ramp 0..255: every 64-byte pattern unit is
#: one slice of it.
_RAMP = bytes(range(256)) * 2

#: The one generator every payload draws its random half from.
_rng = Random()

# Trace ops, bound once: an enum member read through its class costs an
# attribute lookup on every comparison.
_READ = OpType.READ
_WRITE = OpType.WRITE
_CREATE = OpType.CREATE
_DELETE = OpType.DELETE
_TRUNCATE = OpType.TRUNCATE
_EXEC = OpType.EXEC
_SYNC = OpType.SYNC
_MKDIR = OpType.MKDIR
_RENAME = OpType.RENAME


def _payload(seedling: int, nbytes: int) -> bytes:
    """Build one payload: the pattern half, then the random half.

    The pattern half repeats the 64-byte unit ``seedling + i (mod 256)``,
    sliced from :data:`_RAMP`; the random half is one C-speed
    ``randbytes`` batch from :data:`_rng`, reseeded with ``seedling``
    first.  Sharing the one generator is safe because every call
    reseeds it before it draws: ``seed`` leaves exactly the state
    ``Random(seedling)`` starts in, so no call's bytes depend on an
    earlier call's (the simulator is single-threaded, so nothing runs
    between the seed and the draw).  Nothing is memoized: replays
    seldom repeat a ``(seed, nbytes)`` pair, so a memo would hold
    megabytes for a few hits.
    """
    half = nbytes // 2
    start = seedling & 0xFF
    unit = _RAMP[start : start + 64]
    patterned = (unit * (half // 64 + 1))[:half]
    _rng.seed(seedling)
    return patterned + _rng.randbytes(nbytes - half)


def payload_seed(path: str, offset: int) -> int:
    """Process-stable payload seed for a (path, offset) pair.

    Uses ``zlib.crc32`` over the encoded pair rather than the builtin
    ``hash()``: the builtin is salted per process (PYTHONHASHSEED), so
    "deterministic" payloads would differ between two runs -- or between
    the workers of a parallel experiment run -- unless the salt was
    pinned externally.
    """
    raw = path.encode("utf-8") + b"\x00" + str(offset).encode("ascii")
    return (zlib.crc32(raw) & 0xFFFF) or 1


def payload_for(path: str, offset: int, nbytes: int) -> bytes:
    """Deterministic, *realistically compressible* data for a write.

    Real 1993 file data (source, mail, documents) compressed roughly 2:1
    with LZ-class compressors.  Half of each payload is a repeating
    pattern (highly compressible), half is a seeded PRNG stream
    (incompressible), so zlib lands near that 2:1 ratio -- which keeps
    the compression ablation (X1) honest.

    Generation is batched: the pattern half repeats a 64-byte unit
    sliced from a fixed byte ramp, and the random half is one
    ``randbytes`` call on a generator reseeded with the seed, the same
    bytes as ``Random(seed).randbytes``.  The seed derives from ``zlib.crc32`` so payload
    bytes are identical across processes regardless of PYTHONHASHSEED
    (the one-time payload-bytes change vs. the old salted-``hash`` LCG
    generator is intentional and documented in DESIGN.md).
    """
    return _payload(payload_seed(path, offset), nbytes)


@dataclass
class ReplayReport:
    """What a replay measured."""

    records: int = 0
    # Replay is strict (an FSError propagates), so a returned report
    # always has zero errors; the field keeps the snapshot schema.
    errors: int = 0
    bytes_written: int = 0
    bytes_read: int = 0
    elapsed_sim_s: float = 0.0
    trace_duration_s: float = 0.0
    op_counts: Dict[str, int] = field(default_factory=dict)
    op_latency: Dict[str, dict] = field(default_factory=dict)
    # Multi-client replay only: empty for a single stream, so a
    # single-client snapshot carries no per-client attribution.
    per_client: Dict[int, dict] = field(default_factory=dict)

    @property
    def slowdown(self) -> float:
        """Simulated completion time relative to the trace's duration.

        1.0 means the machine kept up with the workload in real time;
        above 1.0 it fell behind (operations queued).
        """
        if self.trace_duration_s <= 0:
            return 0.0
        return self.elapsed_sim_s / self.trace_duration_s

    @property
    def dispatch_delay_total_s(self) -> float:
        """Dispatch delay summed over the clients in order (0.0 for one)."""
        return sum((c["dispatch_delay_s"] for c in self.per_client.values()), 0.0)

    def snapshot(self) -> dict:
        out = {
            "records": self.records,
            "errors": self.errors,
            "bytes_written": self.bytes_written,
            "bytes_read": self.bytes_read,
            "elapsed_sim_s": self.elapsed_sim_s,
            "slowdown": self.slowdown,
            "op_counts": dict(self.op_counts),
            "op_latency": dict(self.op_latency),
        }
        if self.per_client:
            out["per_client"] = {c: dict(d) for c, d in self.per_client.items()}
        return out


class TraceReplayer:
    """Drives a :class:`FileSystem` and its event engine with client streams.

    One loop (:meth:`replay`) merges the streams in global timestamp
    order against the shared clock and engine.  Replay is strict: an
    :class:`~repro.fs.api.FSError` from the file system propagates to the
    caller.
    """

    def __init__(
        self,
        fs: FileSystem,
        engine: Engine,
        exec_handler: Callable[[TraceRecord], None],
    ) -> None:
        self.fs = fs
        self.engine = engine
        self.exec_handler = exec_handler

    def replay(self, streams: Sequence[Iterable[TraceRecord]]) -> ReplayReport:
        """Replay one or more client streams, merged by record time.

        A heap holds each stream's next record as ``(float(time), stream
        index, record, iterator)``.  Each turn takes the earliest entry,
        pumps the engine with ``run_until(max(time, now))``, dispatches
        the record synchronously, and only then pulls that stream's next
        record.  So:

        1. Records run in ``(time, stream index)`` order: ties go to the
           lower index, never to dict or hash order.
        2. Periodic timers fire before any record they precede; one that
           came due during a long op fires before the next record, even
           one whose time is earlier.
        3. A record whose time has passed runs at the current clock (the
           clock never moves back); the gap is its client's dispatch
           delay, the queueing behind other clients' ops.
        4. Streams are pulled lazily, at most one record ahead.

        With one stream the records replay at the root, unprefixed (the
        golden digests in ``tests/test_equivalence`` pin this path).

        With several, client ``i`` replays into its private subtree
        ``/c<i>``: the streams are independently generated, so without
        namespace isolation one client's DELETE would invalidate
        another's READ.  Contention stays in the shared devices, caches
        and buffers, while per-client op counts are conserved under any
        interleaving (a hypothesis property pins this).  The report then
        carries ``per_client`` records, bytes, dispatch delay, op counts
        and latency -- the only place work is attributed to a client.
        """
        if not streams:
            raise ValueError("replay needs at least one stream")
        engine = self.engine
        clock = engine.clock
        dispatch = self._dispatch
        report = ReplayReport()
        histograms: Dict[str, Histogram] = defaultdict(Histogram)
        multi = len(streams) > 1
        # Per-client attribution: multi-client replay only.
        nclients = len(streams) if multi else 0
        clients = [
            dict(records=0, bytes_written=0, bytes_read=0, dispatch_delay_s=0.0)
            for _ in range(nclients)
        ]
        client_hists = [defaultdict(Histogram) for _ in range(nclients)]
        last_time = 0.0
        heap = []
        for idx, records in enumerate(streams):
            it = iter(records)
            record = next(it, None)
            if record is not None:
                heap.append((float(record.time), idx, record, it))
        heapify(heap)
        while heap:
            when, idx, record, it = heap[0]
            if when > last_time:
                last_time = when
            engine.run_until(max(when, clock.now))
            if multi:
                stats = clients[idx]
                delay = clock.now - when
                if delay > 0.0:
                    stats["dispatch_delay_s"] += delay
                prefix = f"/c{idx}"
                record = dataclasses.replace(
                    record,
                    path=prefix + record.path if record.path else record.path,
                    new_path=(prefix + record.new_path) if record.new_path else None,
                )
                # First dispatch: carve out this client's subtree (direct
                # call, deliberately uncounted in op stats).
                if not stats["records"] and not self.fs.exists(prefix):
                    self.fs.mkdir(prefix)
                written, read = report.bytes_written, report.bytes_read
            start = clock.now
            op = dispatch(record, report)
            elapsed = clock.now - start
            report.records += 1
            histograms[op].record(elapsed)
            if multi:
                stats["records"] += 1
                stats["bytes_written"] += report.bytes_written - written
                stats["bytes_read"] += report.bytes_read - read
                client_hists[idx][op].record(elapsed)
            record = next(it, None)
            if record is None:
                heappop(heap)
            else:
                heapreplace(heap, (float(record.time), idx, record, it))
        report.trace_duration_s = last_time
        report.elapsed_sim_s = clock.now
        for op, hist in histograms.items():
            report.op_counts[op] = hist.count
            report.op_latency[op] = hist.summary()
        for idx, (stats, hists) in enumerate(zip(clients, client_hists)):
            stats["op_counts"] = {op: h.count for op, h in hists.items()}
            stats["op_latency"] = {op: h.summary() for op, h in hists.items()}
            report.per_client[idx] = stats
        return report

    def _dispatch(self, record: TraceRecord, report: ReplayReport) -> str:
        """Issue one record's file-system call(s); return its op name.

        Ops are tested by identity, most frequent first.  The semantics
        are tolerant, so that replaying the same trace against any
        organization -- or the same trace from several concurrent
        clients -- is well defined: ``mkdir`` and ``create`` are
        idempotent behind an ``exists`` probe, and the first write to a
        missing file creates it.  EXEC is a program launch, not a file
        operation: it goes to ``exec_handler``.
        """
        op = record.op
        fs = self.fs
        path = record.path
        if op is _READ:
            report.bytes_read += len(fs.read(path, record.offset, record.nbytes))
            return "read"
        if op is _WRITE:
            offset = record.offset
            nbytes = record.nbytes
            if not fs.exists(path):
                fs.create(path)
            fs.write(path, offset, _payload(payload_seed(path, offset), nbytes))
            report.bytes_written += nbytes
            return "write"
        if op is _CREATE:
            if not fs.exists(path):
                fs.create(path)
            return "create"
        if op is _DELETE:
            fs.delete(path)
            return "delete"
        if op is _TRUNCATE:
            fs.truncate(path, record.nbytes)
            return "truncate"
        if op is _EXEC:
            self.exec_handler(record)
            return "exec"
        if op is _SYNC:
            fs.sync()
            return "sync"
        if op is _MKDIR:
            if not fs.exists(path):
                fs.mkdir(path)
            return "mkdir"
        if op is _RENAME:
            fs.rename(path, record.new_path)
            return "rename"
        raise ValueError(f"unhandled op {op}")  # pragma: no cover - exhaustive
