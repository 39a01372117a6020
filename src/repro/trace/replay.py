"""Trace replay against any file system.

The replayer is the measurement harness most experiments share: it runs
one or more client streams through the cooperative scheduler, which
fast-forwards the event engine to each record's timestamp (so periodic
flush/sync timers fire exactly as they would in a live system), issues
the operation, and collects per-operation latency.

Payload bytes are generated deterministically from (path, offset), so a
replay on two different organizations writes identical data -- and reads
can be verified against an independent model if desired.
"""

from __future__ import annotations

import dataclasses
import zlib
from collections import defaultdict
from dataclasses import dataclass, field
from random import Random
from typing import Callable, Dict, Iterable, List, Optional, Sequence

from repro.fs.api import FileSystem, FSRequest
from repro.sim.engine import Engine
from repro.sim.sched import Scheduler
from repro.sim.stats import Histogram
from repro.trace.model import OpType, TraceRecord


#: Two periods of the byte ramp 0..255: every 64-byte pattern unit is
#: one slice of it.
_RAMP = bytes(range(256)) * 2


def _payload(seedling: int, nbytes: int) -> bytes:
    """Build one payload: the pattern half, then the random half.

    The pattern half repeats the 64-byte unit ``seedling + i (mod 256)``,
    sliced from :data:`_RAMP`; the random half is one C-speed
    ``randbytes`` batch.  Nothing is memoized: replays seldom repeat a
    ``(seed, nbytes)`` pair, so a memo would hold megabytes for a few
    hits.
    """
    half = nbytes // 2
    start = seedling & 0xFF
    unit = _RAMP[start : start + 64]
    patterned = (unit * (half // 64 + 1))[:half]
    return patterned + Random(seedling).randbytes(nbytes - half)


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
    sliced from a fixed byte ramp, and the random half comes from one
    ``Random(seed).randbytes`` call.  The seed derives from ``zlib.crc32`` so payload
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
    # Multi-client replay only: empty / None for a single stream, so a
    # single-client snapshot carries no per-client attribution.
    per_client: Dict[int, dict] = field(default_factory=dict)
    scheduler: Optional[dict] = None

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
        """Scheduler dispatch delay summed over all clients (0.0 for one)."""
        if self.scheduler is None:
            return 0.0
        return sum(p["dispatch_delay_total_s"] for p in self.scheduler["processes"])

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
        if self.scheduler is not None:
            out["scheduler"] = self.scheduler
        return out


class TraceReplayer:
    """Drives a :class:`FileSystem` and its event engine with client streams.

    Each stream becomes a cooperative process (see
    :mod:`repro.sim.sched`); steps across clients interleave in global
    timestamp order against the shared clock and engine.  Replay is
    strict: an :class:`~repro.fs.api.FSError` from the file system
    propagates to the caller.
    """

    def __init__(
        self,
        fs: FileSystem,
        engine: Engine,
        exec_handler: Optional[Callable[[TraceRecord], None]] = None,
    ) -> None:
        self.fs = fs
        self.engine = engine
        self.exec_handler = exec_handler

    def replay_scheduled(
        self, streams: Sequence[Iterable[TraceRecord]]
    ) -> ReplayReport:
        """Replay one or more client streams through the scheduler.

        With one stream the process spawns with ``client=None``: no
        client context is set, so metrics and trace bytes carry no
        per-client attribution (the golden digests in
        ``tests/test_equivalence`` pin this path).

        With several streams the report additionally carries
        ``per_client`` op counts/latency and the scheduler's
        dispatch-delay accounting.
        """
        if not streams:
            raise ValueError("scheduled replay needs at least one stream")
        report = ReplayReport()
        histograms: Dict[str, Histogram] = defaultdict(Histogram)
        multi = len(streams) > 1
        # Mutable cell for the max record timestamp across all clients.
        last_time = [0.0]
        sched = Scheduler(self.engine)
        client_stats: Dict[int, dict] = {}
        for idx, records in enumerate(streams):
            client = idx if multi else None
            if multi:
                client_stats[idx] = {
                    "records": 0,
                    "errors": 0,
                    "bytes_written": 0,
                    "bytes_read": 0,
                    "_hists": defaultdict(Histogram),
                }
            sched.spawn(
                self._client_process(
                    records, report, histograms, last_time,
                    client, client_stats.get(idx),
                ),
                name=f"client{idx}",
                client=client,
            )
        sched.run()
        report.trace_duration_s = last_time[0]
        report.elapsed_sim_s = self.engine.clock.now
        for op, hist in histograms.items():
            report.op_counts[op] = hist.count
            report.op_latency[op] = hist.summary()
        if multi:
            for idx, stats in client_stats.items():
                hists = stats.pop("_hists")
                stats["op_counts"] = {op: h.count for op, h in hists.items()}
                stats["op_latency"] = {op: h.summary() for op, h in hists.items()}
                report.per_client[idx] = stats
            report.scheduler = sched.snapshot()
        return report

    def _client_process(
        self,
        records: Iterable[TraceRecord],
        report: ReplayReport,
        histograms: Dict[str, Histogram],
        last_time: List[float],
        client: Optional[int],
        stats: Optional[dict],
    ):
        """Generator body of one client: yield each record's time, then
        dispatch it synchronously when the scheduler resumes us.

        Concurrent clients replay into private subtrees (``/c<N>/...``):
        the streams are independently generated, so without namespace
        isolation one client's DELETE would invalidate another's READ.
        Contention stays where it belongs -- in the shared devices,
        caches, and buffers -- while per-client op counts are conserved
        under any interleaving (the hypothesis property pins this).
        """
        clock = self.engine.clock
        prefix = f"/c{client}" if client is not None else None
        rooted = prefix is None
        for record in records:
            if record.time > last_time[0]:
                last_time[0] = record.time
            if prefix is not None:
                record = dataclasses.replace(
                    record,
                    path=prefix + record.path if record.path else record.path,
                    new_path=(prefix + record.new_path) if record.new_path else None,
                )
            yield record.time
            if not rooted:
                # First resumed step: carve out this client's subtree
                # (direct call, deliberately uncounted in op stats).
                if not self.fs.exists(prefix):
                    self.fs.mkdir(prefix)
                rooted = True
            start = clock.now
            written, read = report.bytes_written, report.bytes_read
            self._dispatch(record, report, client=client)
            elapsed = clock.now - start
            op = record.op.value
            report.records += 1
            histograms[op].record(elapsed)
            if stats is not None:
                stats["records"] += 1
                stats["bytes_written"] += report.bytes_written - written
                stats["bytes_read"] += report.bytes_read - read
                stats["_hists"][op].record(elapsed)

    # Trace ops that translate 1:1 into kernel FS requests (EXEC is a
    # program launch, not a file operation, and stays out of the map).
    _FS_OPS = {
        OpType.MKDIR: "mkdir",
        OpType.CREATE: "create",
        OpType.WRITE: "write",
        OpType.READ: "read",
        OpType.TRUNCATE: "truncate",
        OpType.DELETE: "delete",
        OpType.RENAME: "rename",
        OpType.SYNC: "sync",
    }

    def _dispatch(
        self, record: TraceRecord, report: ReplayReport, client: Optional[int] = None
    ) -> None:
        op = record.op
        if op is OpType.EXEC:
            if self.exec_handler is not None:
                self.exec_handler(record)
            return
        fs_op = self._FS_OPS.get(op)
        if fs_op is None:  # pragma: no cover - exhaustive
            raise ValueError(f"unhandled op {op}")
        request = FSRequest(
            op=fs_op,
            path=record.path,
            offset=record.offset,
            nbytes=record.nbytes,
            new_path=record.new_path,
            client=client,
        )
        if op is OpType.WRITE:
            request.data = payload_for(record.path, record.offset, record.nbytes)
        payload = self.fs.apply(request)
        if op is OpType.WRITE:
            report.bytes_written += record.nbytes
        elif op is OpType.READ and payload is not None:
            report.bytes_read += len(payload)
