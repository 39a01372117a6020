"""The common file-system interface and error types.

Both file systems (memory-resident and conventional) implement
:class:`FileSystem`, so trace replay, experiments, and examples are
organization-agnostic.  Callers, the trace replayer among them, call its
methods directly; there is no request object.  Paths are Unix-style
(``/dir/file``); each implementation times its operations whole-call
against the owning machine's simulated clock through the shared
:attr:`FileSystem._timed` op boundary.
"""

from __future__ import annotations

import functools
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import List, Tuple



class FSError(Exception):
    """Base class for file-system errors."""


class FileNotFoundFSError(FSError):
    pass


class FileExistsFSError(FSError):
    pass


class NotADirectoryFSError(FSError):
    pass


class IsADirectoryFSError(FSError):
    pass


class NotEmptyFSError(FSError):
    pass


class InvalidPathError(FSError):
    pass


class NoSpaceFSError(FSError):
    pass


@dataclass(frozen=True)
class FileStat:
    """Metadata returned by :meth:`FileSystem.stat`."""

    path: str
    is_dir: bool
    size: int
    nblocks: int
    mtime: float


def split_path(path: str) -> List[str]:
    """Normalize an absolute path into components.

    Rejects relative paths, empty components are collapsed, ``.`` and
    ``..`` are not supported (the trace workloads never emit them).
    """
    if not path or not path.startswith("/"):
        raise InvalidPathError(f"path must be absolute: {path!r}")
    parts = []
    for part in path.split("/"):
        if not part:
            continue
        if part in (".", ".."):
            raise InvalidPathError(f"relative component in {path!r}")
        if len(part) > 59:
            raise InvalidPathError(f"component too long in {path!r}")
        parts.append(part)
    return parts


def parent_and_name(path: str) -> Tuple[List[str], str]:
    parts = split_path(path)
    if not parts:
        raise InvalidPathError("operation on the root directory")
    return parts[:-1], parts[-1]


class FileSystem(ABC):
    """Path-based file operations shared by all organizations."""

    @abstractmethod
    def create(self, path: str) -> None:
        """Create an empty regular file."""

    @abstractmethod
    def write(self, path: str, offset: int, data: bytes) -> int:
        """Write ``data`` at ``offset``; extends the file; returns bytes written."""

    @abstractmethod
    def read(self, path: str, offset: int, nbytes: int) -> bytes:
        """Read up to ``nbytes`` at ``offset`` (short read at EOF)."""

    @abstractmethod
    def truncate(self, path: str, size: int) -> None:
        """Shrink or zero-extend a file to ``size`` bytes."""

    @abstractmethod
    def delete(self, path: str) -> None:
        """Remove a regular file."""

    @abstractmethod
    def mkdir(self, path: str) -> None:
        """Create a directory."""

    @abstractmethod
    def rmdir(self, path: str) -> None:
        """Remove an empty directory."""

    @abstractmethod
    def listdir(self, path: str) -> List[str]:
        """Names in a directory, sorted."""

    @abstractmethod
    def rename(self, old: str, new: str) -> None:
        """Rename/move a file or directory."""

    @abstractmethod
    def stat(self, path: str) -> FileStat:
        """Metadata for a path."""

    @abstractmethod
    def exists(self, path: str) -> bool:
        """True if the path resolves."""

    @abstractmethod
    def sync(self) -> None:
        """Push all dirty state to stable storage."""

    def read_file(self, path: str) -> bytes:
        """Convenience: whole-file read."""
        return self.read(path, 0, self.stat(path).size)

    def write_file(self, path: str, data: bytes) -> None:
        """Convenience: create-or-replace whole file contents."""
        if not self.exists(path):
            self.create(path)
        else:
            self.truncate(path, 0)
        if data:
            self.write(path, 0, data)

    @functools.cached_property
    def _timed(self) -> "_OpTimers":
        """The op boundary: ``with self._timed["write"]:`` times one op.

        On a normal exit (an early ``return`` included) the op counts
        one ``<op>_ops`` in ``self.stats`` and records its elapsed
        ``self.clock`` time in ``<op>_latency``.  An op that raises
        records nothing.
        """
        return _OpTimers(self)


class _OpTimer:
    """The op boundary of one (file system, op name) pair.

    Its counter and histogram are looked up on the first op that
    completes, so a snapshot never shows a metric no op has recorded.
    One start slot suffices because a file system's ops never nest: no
    op calls another timed op, and the scheduler runs each op to
    completion before it resumes another client.
    """

    __slots__ = ("fs", "op", "start", "ops", "latency")

    def __init__(self, fs: FileSystem, op: str) -> None:
        self.fs = fs
        self.op = op
        self.start = 0.0
        self.ops = None
        self.latency = None

    def __enter__(self) -> None:
        self.start = self.fs.clock.now

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            return
        fs = self.fs
        elapsed = fs.clock.now - self.start
        ops = self.ops
        if ops is None:
            ops = self.ops = fs.stats.counter(f"{self.op}_ops")
            self.latency = fs.stats.histogram(f"{self.op}_latency")
        ops.value += 1
        self.latency.record(elapsed)


class _OpTimers(dict):
    """One file system's :class:`_OpTimer` per op name, made on first use."""

    def __init__(self, fs: FileSystem) -> None:
        super().__init__()
        self.fs = fs

    def __missing__(self, op: str) -> _OpTimer:
        timer = self[op] = _OpTimer(self.fs, op)
        return timer
