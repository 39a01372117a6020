"""Trace record schema.

A trace is a time-ordered list of :class:`TraceRecord`.  Records are
file-system-level operations (the paper's experiments are about storage
organization, not syscall minutiae), plus ``EXEC`` records that the full
hierarchy maps onto program launches (XIP vs load, experiment E6).
"""

from __future__ import annotations

import enum
from typing import NamedTuple, Optional


class OpType(enum.Enum):
    CREATE = "create"
    WRITE = "write"
    READ = "read"
    DELETE = "delete"
    TRUNCATE = "truncate"
    MKDIR = "mkdir"
    RENAME = "rename"
    SYNC = "sync"
    EXEC = "exec"


# Bound once: :meth:`TraceRecord.__new__` runs for every record.
_RENAME, _EXEC = OpType.RENAME, OpType.EXEC
_tuple_new = tuple.__new__


class _RecordFields(NamedTuple):
    time: float
    op: OpType
    path: str
    offset: int = 0
    nbytes: int = 0
    new_path: Optional[str] = None  # RENAME target
    program: Optional[str] = None  # EXEC program name


class TraceRecord(_RecordFields):
    """One operation in a workload trace.

    An immutable, hashable tuple of ``(time, op, path, offset, nbytes,
    new_path, program)`` that compares field by field.  A tuple rather
    than a dataclass because a trace holds thousands of them and the
    generator builds each one: ~0.4 us per record against the frozen
    dataclass's ~1.4 us (Python 3.11, 2-core Xeon).  Every construction path -- the
    constructor, :meth:`_make`, ``_replace`` (which builds through
    ``_make``), pickling -- goes through :meth:`__new__` and its checks.
    """

    __slots__ = ()

    def __new__(cls, time, op, path, offset=0, nbytes=0, new_path=None, program=None):
        # One test on the fast path; the rare RENAME and EXEC go on to
        # have their target checked.
        if time < 0 or offset < 0 or nbytes < 0 or op is _RENAME or op is _EXEC:
            _check_fields(time, op, offset, nbytes, new_path, program)
        return _tuple_new(cls, (time, op, path, offset, nbytes, new_path, program))

    @classmethod
    def _make(cls, iterable):
        # The stock namedtuple ``_make`` builds the tuple directly,
        # past ``__new__``; ``_replace`` calls this one.
        return cls(*iterable)


def _check_fields(time, op, offset, nbytes, new_path, program) -> None:
    """Raise ``ValueError`` naming the first of the four checks a record's
    fields fail."""
    if time < 0:
        raise ValueError("record time cannot be negative")
    if offset < 0 or nbytes < 0:
        raise ValueError("record range cannot be negative")
    if op is _RENAME and not new_path:
        raise ValueError("RENAME needs new_path")
    if op is _EXEC and not program:
        raise ValueError("EXEC needs a program name")


def validate_trace(records) -> None:
    """Check that a trace is time ordered (generators must guarantee it)."""
    last = -1.0
    for record in records:
        if record.time < last:
            raise ValueError(
                f"trace not time ordered at t={record.time} (prev {last})"
            )
        last = record.time
