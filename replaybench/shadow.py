"""Shadow model of a trace's final file contents, and the read-back check.

The model is built from the generated trace alone: it applies each record
with the replayer's tolerant semantics (:meth:`repro.fs.api.FileSystem.apply`:
idempotent ``mkdir``/``create``, create-on-first-write) and the payload
bytes :func:`repro.trace.replay.payload_for` would write.  After a replay,
:func:`read_back` walks the simulated file system and names every path
whose existence or bytes differ from the model.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set

from repro.trace.model import OpType, TraceRecord
from repro.trace.replay import payload_for


class ShadowFS:
    """Final namespace and file bytes implied by a trace."""

    def __init__(self) -> None:
        self.dirs: Set[str] = {"/"}
        self.files: Dict[str, bytearray] = {}

    @classmethod
    def from_trace(cls, trace: Iterable[TraceRecord]) -> "ShadowFS":
        shadow = cls()
        for record in trace:
            shadow.apply(record)
        return shadow

    def apply(self, record: TraceRecord) -> None:
        op, path = record.op, record.path
        if op is OpType.MKDIR:
            if path not in self.files:
                self.dirs.add(path)
        elif op is OpType.CREATE:
            if path not in self.files and path not in self.dirs:
                self.files[path] = bytearray()
        elif op is OpType.WRITE:
            data = self.files.setdefault(path, bytearray())
            end = record.offset + record.nbytes
            if len(data) < end:
                data.extend(bytes(end - len(data)))
            data[record.offset:end] = payload_for(path, record.offset, record.nbytes)
        elif op is OpType.TRUNCATE:
            data = self.files.get(path)
            if data is not None:
                if record.nbytes <= len(data):
                    del data[record.nbytes:]
                else:
                    data.extend(bytes(record.nbytes - len(data)))
        elif op is OpType.DELETE:
            self.files.pop(path, None)
        elif op is OpType.RENAME:
            self._rename(path, record.new_path or path)
        # READ, SYNC and EXEC leave the namespace and contents unchanged.

    def _rename(self, old: str, new: str) -> None:
        if old in self.files:
            # POSIX rename-over: an existing target file is replaced.
            self.files[new] = self.files.pop(old)
            return
        if old not in self.dirs:
            return
        prefix = old + "/"
        for path in sorted(self.dirs):
            if path == old or path.startswith(prefix):
                self.dirs.discard(path)
                self.dirs.add(new + path[len(old):])
        for path in sorted(self.files):
            if path.startswith(prefix):
                self.files[new + path[len(old):]] = self.files.pop(path)


def _join(directory: str, name: str) -> str:
    return f"/{name}" if directory == "/" else f"{directory}/{name}"


def read_back(fs, shadow: ShadowFS) -> List[str]:
    """Paths whose state in ``fs`` differs from ``shadow``.

    Every file is read in full through ``fs.read``; a path counts once
    whether it is missing, unexpected, of the wrong kind or holds the
    wrong bytes.
    """
    dirs: Set[str] = {"/"}
    files: Dict[str, bytes] = {}
    pending = ["/"]
    while pending:
        directory = pending.pop()
        for name in fs.listdir(directory):
            path = _join(directory, name)
            stat = fs.stat(path)
            if stat.is_dir:
                dirs.add(path)
                pending.append(path)
            else:
                files[path] = fs.read(path, 0, stat.size)
    wrong = set(dirs.symmetric_difference(shadow.dirs))
    for path in files.keys() | shadow.files.keys():
        if files.get(path) != shadow.files.get(path):
            wrong.add(path)
    return sorted(wrong)
