"""The replayer's one dispatch against the request-object path it replaced.

``TraceReplayer._dispatch`` branches on ``record.op`` and calls the file
system directly.  It replaced a path that built an ``FSRequest`` per
record and handed it to ``FileSystem.apply``; both are copied verbatim
below as the oracle.  Driven against a file system that records every
call it receives, the two must issue the same calls in the same order
(``exists`` probes included), key the op histogram by the same name and
count the same bytes -- for every op, for EXEC with and without a
handler, for the tolerant cases (idempotent ``mkdir``/``create``,
create-on-first-write), for a zero-byte write, a read past EOF, a
rename, and a two-client replay with its ``/c<N>`` prefixes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import pytest

from repro.fs.api import FileStat, FileSystem
from repro.sim.engine import Engine
from repro.trace.model import OpType, TraceRecord
from repro.trace.replay import ReplayReport, TraceReplayer, payload_for
from repro.trace.workloads import generate_workload


# ----------------------------------------------------------------------
# A file system that records every call.
# ----------------------------------------------------------------------


class RecordingFS(FileSystem):
    """A lenient in-memory FS that logs each call and advances the clock.

    Every call moves the clock by an amount that depends on its position
    in the log, so equal logs give equal latency histograms.
    """

    def __init__(self, engine: Engine) -> None:
        self.clock = engine.clock
        self.calls: List[tuple] = []
        self.files = {}
        self.dirs = {"/"}

    def _log(self, *call) -> None:
        self.calls.append(call)
        self.clock.advance(1e-4 * (len(self.calls) % 7 + 1))

    def create(self, path: str) -> None:
        self._log("create", path)
        self.files[path] = bytearray()

    def write(self, path: str, offset: int, data: bytes) -> int:
        self._log("write", path, offset, bytes(data))
        buf = self.files.setdefault(path, bytearray())
        if len(buf) < offset:
            buf.extend(bytes(offset - len(buf)))
        buf[offset : offset + len(data)] = data
        return len(data)

    def read(self, path: str, offset: int, nbytes: int) -> bytes:
        self._log("read", path, offset, nbytes)
        return bytes(self.files.get(path, b"")[offset : offset + nbytes])

    def truncate(self, path: str, size: int) -> None:
        self._log("truncate", path, size)
        buf = self.files.setdefault(path, bytearray())
        del buf[size:]
        buf.extend(bytes(size - len(buf)))

    def delete(self, path: str) -> None:
        self._log("delete", path)
        self.files.pop(path, None)

    def mkdir(self, path: str) -> None:
        self._log("mkdir", path)
        self.dirs.add(path)

    def rmdir(self, path: str) -> None:
        self._log("rmdir", path)
        self.dirs.discard(path)

    def listdir(self, path: str) -> List[str]:
        self._log("listdir", path)
        return []

    def rename(self, old: str, new: str) -> None:
        self._log("rename", old, new)
        if old in self.files:
            self.files[new] = self.files.pop(old)

    def stat(self, path: str) -> FileStat:
        self._log("stat", path)
        size = len(self.files.get(path, b""))
        return FileStat(path, path in self.dirs, size, 0, self.clock.now)

    def exists(self, path: str) -> bool:
        self._log("exists", path)
        return path in self.files or path in self.dirs

    def sync(self) -> None:
        self._log("sync")


# ----------------------------------------------------------------------
# The oracle: the request-object path, verbatim.
# ----------------------------------------------------------------------


@dataclass
class FSRequest:
    """One kernel-level file-system request.

    The replayer (and any future kernel entry point) describes each
    operation as data, so requests can be attributed to a client and
    dispatched uniformly by :meth:`FileSystem.apply`.

    Attributes:
        op: ``mkdir`` | ``create`` | ``write`` | ``read`` | ``truncate``
            | ``delete`` | ``rename`` | ``sync``.
        path: target path (unused for ``sync``).
        offset: byte offset for ``read``/``write``.
        nbytes: read size, or the target size for ``truncate``.
        data: payload for ``write``.
        new_path: destination for ``rename``.
        client: originating client id (None for kernel-internal or
            single-client traffic).
    """

    op: str
    path: str = ""
    offset: int = 0
    nbytes: int = 0
    data: Optional[bytes] = None
    new_path: Optional[str] = None
    client: Optional[int] = None


class OracleFS(RecordingFS):
    def apply(self, request: FSRequest) -> Optional[bytes]:
        """Apply one :class:`FSRequest`; returns the payload for reads.

        Dispatch uses the replayer's tolerant semantics (idempotent
        ``mkdir``/``create``, create-on-first-write) so that replaying
        the same trace against any organization -- or the same trace
        from several concurrent clients -- is well defined.
        """
        op = request.op
        if op == "mkdir":
            if not self.exists(request.path):
                self.mkdir(request.path)
        elif op == "create":
            if not self.exists(request.path):
                self.create(request.path)
        elif op == "write":
            if not self.exists(request.path):
                self.create(request.path)
            self.write(request.path, request.offset, request.data or b"")
        elif op == "read":
            return self.read(request.path, request.offset, request.nbytes)
        elif op == "truncate":
            self.truncate(request.path, request.nbytes)
        elif op == "delete":
            self.delete(request.path)
        elif op == "rename":
            self.rename(request.path, request.new_path or request.path)
        elif op == "sync":
            self.sync()
        else:
            raise ValueError(f"unhandled FS request op {op!r}")
        return None


class OracleReplayer(TraceReplayer):
    """The replayer with the request-object dispatch in place of its own."""

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

    def _dispatch(self, record: TraceRecord, report: ReplayReport) -> str:
        # The replay loop keyed its histograms by ``record.op.value``.
        self._old_dispatch(record, report)
        return record.op.value

    def _old_dispatch(
        self, record: TraceRecord, report: ReplayReport, client: Optional[int] = None
    ) -> None:
        op = record.op
        if op is OpType.EXEC:
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


# ----------------------------------------------------------------------
# Driving both.
# ----------------------------------------------------------------------


def _rec(op: OpType, path: str = "/d/f", **kw) -> TraceRecord:
    return TraceRecord(time=kw.pop("time", 0.0), op=op, path=path, **kw)


#: Sets up /d and a 100-byte /d/f before the record under test.
PREAMBLE = [
    _rec(OpType.MKDIR, "/d"),
    _rec(OpType.CREATE, "/d/f"),
    _rec(OpType.WRITE, "/d/f", offset=0, nbytes=100),
]


def _both():
    """An (engine, fs, replayer, exec log) per side: new, then oracle."""
    sides = []
    for fs_cls, replayer_cls in ((RecordingFS, TraceReplayer), (OracleFS, OracleReplayer)):
        engine = Engine()
        fs = fs_cls(engine)
        launched: List[str] = []
        replayer = replayer_cls(fs, engine, lambda r, log=launched: log.append(r.program))
        sides.append((fs, replayer, launched))
    return sides


def _dispatch_each(records):
    """Dispatch records one by one on both sides; assert equal effects."""
    (fs, new, new_launched), (ofs, old, old_launched) = _both()
    new_report, old_report = ReplayReport(), ReplayReport()
    for record in records:
        assert new._dispatch(record, new_report) == old._dispatch(record, old_report)
        assert fs.calls == ofs.calls, record
        assert (new_report.bytes_written, new_report.bytes_read) == (
            old_report.bytes_written,
            old_report.bytes_read,
        ), record
    assert new_launched == old_launched
    return fs, new_report, new_launched


def _replay_both(streams):
    """Replay the streams through the replay loop on both sides."""
    (fs, new, new_launched), (ofs, old, old_launched) = _both()
    new_report = new.replay(streams)
    old_report = old.replay(streams)
    assert fs.calls == ofs.calls
    assert new_report.snapshot() == old_report.snapshot()
    assert new_launched == old_launched
    return fs, new_report, new_launched


#: One record per op, each valid after :data:`PREAMBLE`.
ONE_OF_EACH = {
    OpType.CREATE: _rec(OpType.CREATE, "/d/g"),
    OpType.WRITE: _rec(OpType.WRITE, "/d/f", offset=40, nbytes=300),
    OpType.READ: _rec(OpType.READ, "/d/f", offset=10, nbytes=50),
    OpType.DELETE: _rec(OpType.DELETE, "/d/f"),
    OpType.TRUNCATE: _rec(OpType.TRUNCATE, "/d/f", nbytes=10),
    OpType.MKDIR: _rec(OpType.MKDIR, "/d/e"),
    OpType.RENAME: _rec(OpType.RENAME, "/d/f", new_path="/d/h"),
    OpType.SYNC: _rec(OpType.SYNC, ""),
    OpType.EXEC: _rec(OpType.EXEC, "/bin/ed", program="ed"),
}


class TestDispatchMatchesRequestPath:
    def test_the_table_covers_every_op(self):
        assert set(ONE_OF_EACH) == set(OpType)

    @pytest.mark.parametrize("op", list(OpType), ids=lambda op: op.value)
    def test_every_op(self, op):
        _dispatch_each(PREAMBLE + [ONE_OF_EACH[op]])

    def test_exec(self):
        record = ONE_OF_EACH[OpType.EXEC]
        fs, _, launched = _dispatch_each([record, record])
        assert fs.calls == []
        assert launched == ["ed", "ed"]

    @pytest.mark.parametrize("op", [OpType.MKDIR, OpType.CREATE], ids=["mkdir", "create"])
    def test_idempotent_on_existing_and_missing_paths(self, op):
        # Missing, then existing: one creating call, two probes.
        fs, _, _ = _dispatch_each([_rec(op, "/x"), _rec(op, "/x")])
        assert [call[0] for call in fs.calls] == ["exists", op.value, "exists"]

    def test_first_write_to_missing_file_creates_it(self):
        fs, report, _ = _dispatch_each([_rec(OpType.WRITE, "/new", offset=8, nbytes=24)])
        assert [call[0] for call in fs.calls] == ["exists", "create", "write"]
        assert fs.calls[-1] == ("write", "/new", 8, payload_for("/new", 8, 24))
        assert report.bytes_written == 24

    def test_zero_byte_write(self):
        fs, report, _ = _dispatch_each([_rec(OpType.WRITE, "/z", offset=5, nbytes=0)])
        assert fs.calls[-1] == ("write", "/z", 5, b"")
        assert report.bytes_written == 0

    def test_read_past_eof(self):
        fs, report, _ = _dispatch_each(
            PREAMBLE
            + [
                _rec(OpType.READ, "/d/f", offset=60, nbytes=100),
                _rec(OpType.READ, "/d/f", offset=500, nbytes=100),
            ]
        )
        assert report.bytes_read == 40

    def test_rename(self):
        fs, _, _ = _dispatch_each(
            PREAMBLE + [_rec(OpType.RENAME, "/d/f", new_path="/d/h")]
        )
        assert fs.calls[-1] == ("rename", "/d/f", "/d/h")
        assert "/d/h" in fs.files


class TestReplayMatchesRequestPath:
    def test_handwritten_stream(self):
        stream = [
            record._replace(time=0.5 * i)
            for i, record in enumerate(PREAMBLE + list(ONE_OF_EACH.values()))
        ]
        _replay_both([stream])

    @pytest.mark.parametrize("workload", ["office", "exec_heavy", "database"])
    def test_generated_trace(self, workload):
        trace = generate_workload(workload, seed=4, duration_s=60.0)
        _, report, _ = _replay_both([trace])
        assert report.records == len(trace)

    def test_two_clients_with_prefixes(self):
        streams = [
            generate_workload("office", seed=seed, duration_s=60.0) for seed in (2, 3)
        ]
        fs, report, _ = _replay_both(streams)
        paths = {call[1] for call in fs.calls if len(call) > 1}
        assert {"/c0", "/c1"} <= paths
        assert all(p.startswith(("/c0", "/c1")) for p in paths)
        assert set(report.per_client) == {0, 1}
