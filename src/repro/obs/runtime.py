"""Process-wide active tracer.

Experiment drivers build their machines internally, so the CLI cannot
thread a tracer argument through every call chain.  Instead the CLI's
one observed-run path (``repro.cli._observed``) scopes a fresh tracer
with :func:`tracing`, and :class:`~repro.core.hierarchy.MobileComputer`
picks it up at construction time, attaching it to every component it
builds.  Code that constructs components directly can still pass or set
tracers explicitly; this is only the default.  :func:`set_tracer` is
the raw install/restore primitive under :func:`tracing`, kept for
callers that cannot use a ``with`` block.

The setting is per-process: a parallel experiment run's worker processes
do not inherit it.  Instead each traced job scopes its *own* tracer in
whatever process runs it, writes a per-job shard file, and the parent
merges the shards deterministically (see
:func:`repro.obs.tracer.merge_shards_to_jsonl`) -- so ``--trace``
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
def tracing(tracer: Optional[Tracer] = None) -> Iterator[Tracer]:
    """Scope a tracer: machines built inside the block trace into it."""
    active = tracer if tracer is not None else Tracer()
    previous = set_tracer(active)
    try:
        yield active
    finally:
        set_tracer(previous)
