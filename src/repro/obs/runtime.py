"""Process-wide active tracer.

One rule wires tracing: **a component traces into the tracer that was
active when it was built.**  Every traced component (the engine,
devices, flash store, write buffer, storage manager, virtual memory,
fault injector, and :class:`~repro.core.hierarchy.MobileComputer`
itself) reads :func:`get_tracer` once in its constructor and never
changes it.  Experiment drivers build their machines internally, so
the CLI cannot thread a tracer argument through every call chain;
instead its one observed-run path (``repro.cli._observed``) scopes a
tracer with :func:`tracing` around the whole run.  A machine rebooted
after power loss rebuilds its components inside its own tracer's
scope, so a reboot neither detaches a traced machine nor lets an
untraced one pick up some other scope's tracer.

The slot is process-wide rather than a constructor argument because
the components some experiment drivers and the torture harness build
outside any machine must trace too, and because the replay benchmark
installs its tracer through :func:`set_tracer`, the raw install/restore
primitive under :func:`tracing`, kept for callers that cannot use a
``with`` block.

The setting is per-process: a parallel experiment run's worker processes
do not inherit it.  Instead each traced job scopes its *own* tracer in
whatever process runs it and returns the tracer's buffered records to
the parent, which merges every job's records deterministically in
memory (see :func:`repro.obs.tracer.write_trace`) -- so ``--trace``
composes with ``-j N`` without any cross-process tracer sharing.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

from repro.obs.tracer import Tracer

_active: Optional[Tracer] = None


def set_tracer(tracer: Optional[Tracer]) -> Optional[Tracer]:
    """Install (or clear, with None) the process-wide tracer; returns
    the previous one so callers can restore it."""
    global _active
    previous = _active
    _active = tracer
    return previous


def get_tracer() -> Optional[Tracer]:
    return _active


@contextmanager
def tracing(tracer: Optional[Tracer]) -> Iterator[Optional[Tracer]]:
    """Scope ``tracer`` (None: untraced): components built inside the
    block trace into it."""
    previous = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)
