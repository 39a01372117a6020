"""Structured trace event stream.

Every instrumented component (devices, write buffer, flashstore GC, VM
paging, the event engine) emits typed records through one
:class:`Tracer`: ``(sim-time, component, op, bytes, latency, outcome,
detail)``.  Records carry *simulated* time only -- never host wall
clock -- so two identically-seeded runs produce byte-identical streams.

Design constraints:

- **Low overhead when off.**  Components take the tracer active when
  they are built (:mod:`repro.obs.runtime`; None when untraced) and
  guard every emit with ``if self.tracer is not None``; the cost of
  disabled tracing is one attribute load per operation.  The cost of
  tracing *on* (with the stock online monitors) is measured, not
  assumed: replaybench reports it as ``obs.tracer_cost_frac``.
- **Bounded memory when on.**  Events land in a ring buffer; when it
  fills, the oldest half is dropped in one slice (cheaper than a deque
  pop per append) and counted in ``dropped`` so truncation is never
  silent.

Sink: :meth:`Tracer.to_jsonl` writes the buffered events one JSON
object per line (the schema lives in :mod:`repro.obs.schema`), in
emission order -- the raw *shard* format.  Final traces always come out
of :func:`merge_shards_to_jsonl` (canonical order) and
:func:`jsonl_to_chrome` (Chrome ``trace_event`` format -- load it at
``chrome://tracing`` or https://ui.perfetto.dev for a flame-chart view
per component).

Live consumers (the online invariant monitors in
:mod:`repro.obs.monitor`) :meth:`~Tracer.subscribe` a callable for the
components they read and see each of those components' events as it is
emitted -- including events the ring later drops, so a monitor's view
is never truncated.  The tracer routes by component: an emit costs one
dict lookup plus one call per observer subscribed to that component,
and events no observer reads (most device records) cost only the
lookup.

**Sharding.**  Every traced CLI run writes one *shard* file per job
(:func:`shard_filename`) -- a serial run is one job with one shard --
and :func:`merge_shards_to_jsonl` merges the shards into one canonical
stream: a stable sort on ``(t, seq, shard)`` where ``seq`` is the
event's position within its shard and ``shard`` is the job's submission
index.  Because both keys are functions of the (seed-deterministic) job
content and submission order -- never of which worker process ran the
job or when -- the merged file is byte-identical for any ``-j``, and
every final ``.jsonl`` carries ``seq``/``shard`` fields so tools never
see two formats.
"""

from __future__ import annotations

import json
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

#: Ordered field names of one trace record (the JSONL object keys).
EVENT_FIELDS = ("t", "component", "op", "bytes", "latency_s", "outcome", "detail")

_EventTuple = Tuple[float, str, str, int, float, str, Optional[dict]]
_Observer = Callable[[_EventTuple], None]


class Tracer:
    """Ring-buffered collector of typed trace events."""

    def __init__(self, capacity: int = 1 << 20) -> None:
        if capacity < 2:
            raise ValueError("tracer capacity must be at least 2")
        self.capacity = capacity
        self._events: List[_EventTuple] = []
        #: Events discarded because the ring buffer filled.
        self.dropped = 0
        #: component -> the observers subscribed to it, in subscription order.
        self._routes: Dict[str, Tuple[_Observer, ...]] = {}

    def emit(
        self,
        component: str,
        op: str,
        t: float,
        nbytes: int = 0,
        latency_s: float = 0.0,
        outcome: str = "ok",
        detail: Optional[dict] = None,
    ) -> None:
        """Record one event.  Hot path: appends a tuple, then calls only
        the observers subscribed to ``component``."""
        events = self._events
        if len(events) >= self.capacity:
            drop = self.capacity // 2
            del events[:drop]
            self.dropped += drop
        record = (t, component, op, nbytes, latency_s, outcome, detail)
        events.append(record)
        observers = self._routes.get(component)
        if observers is not None:
            for observer in observers:
                observer(record)

    @property
    def emitted(self) -> int:
        """Total events ever emitted (including ones the ring dropped)."""
        return self.dropped + len(self._events)

    def subscribe(self, observer: _Observer, components: Iterable[str]) -> None:
        """Call ``observer(record)`` on every future emit from one of
        ``components`` (before any ring drop, so live consumers see the
        full stream of what they read)."""
        for component in components:
            observers = self._routes.get(component, ())
            if observer not in observers:
                self._routes[component] = observers + (observer,)

    def unsubscribe(self, observer: _Observer) -> None:
        """Stop calling ``observer`` for every component."""
        for component, observers in list(self._routes.items()):
            kept = tuple(o for o in observers if o != observer)
            if kept:
                self._routes[component] = kept
            else:
                del self._routes[component]

    def __len__(self) -> int:
        return len(self._events)

    def clear(self) -> None:
        self._events.clear()
        self.dropped = 0

    # ------------------------------------------------------------------
    # Views.
    # ------------------------------------------------------------------

    def events(self) -> Iterator[dict]:
        """Yield events as plain dicts (JSON-able; detail omitted if None)."""
        for record in self._events:
            out = dict(zip(EVENT_FIELDS, record))
            if out["detail"] is None:
                del out["detail"]
            yield out

    # ------------------------------------------------------------------
    # Sink.
    # ------------------------------------------------------------------

    def to_jsonl(self, path: str) -> int:
        """Write buffered events as JSON Lines; returns events written."""
        n = 0
        with open(path, "w", encoding="utf-8") as fh:
            for event in self.events():
                fh.write(json.dumps(event, sort_keys=True))
                fh.write("\n")
                n += 1
        return n


# ----------------------------------------------------------------------
# Shards and the canonical deterministic merge.
# ----------------------------------------------------------------------


def shard_filename(base: str, index: int) -> str:
    """Per-job shard path for a traced run."""
    return f"{base}.shard{index:04d}.jsonl"


def merge_shards_to_jsonl(out_path: str, shard_paths: Iterable[str]) -> int:
    """Merge per-job shard files into one canonical trace.

    Events are stable-sorted on ``(t, seq, shard)``: ``seq`` is the
    event's line number within its shard (emission order after any ring
    drop) and ``shard`` is the shard's position in ``shard_paths`` (job
    submission order).  Both keys depend only on job content and
    submission order, so the merged file is identical for any worker
    count.  Returns the number of events written.
    """
    indexed: List[Tuple[float, int, int, dict]] = []
    for shard, path in enumerate(shard_paths):
        for seq, event in enumerate(iter_trace(path)):
            indexed.append((event["t"], seq, shard, event))
    indexed.sort(key=lambda row: (row[0], row[1], row[2]))
    with open(out_path, "w", encoding="utf-8") as fh:
        for _t, seq, shard, event in indexed:
            event["seq"] = seq
            event["shard"] = shard
            fh.write(json.dumps(event, sort_keys=True))
            fh.write("\n")
    return len(indexed)


# ----------------------------------------------------------------------
# Reading and exporting JSONL traces.
# ----------------------------------------------------------------------


def iter_trace(path: str) -> Iterator[dict]:
    """Yield trace events from a JSONL file, one at a time (streaming)."""
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                yield json.loads(line)


def jsonl_to_chrome(jsonl_path: str, chrome_path: str, dropped: int = 0) -> int:
    """Convert a (merged) JSONL trace to Chrome ``trace_event`` format
    (complete 'X' events); returns the number of events written.

    Sim seconds map to microseconds; each component gets its own
    ``tid`` so the viewer lays components out as separate tracks.
    ``dropped`` (the ring's drop count) lands in ``otherData``.
    """
    tids: Dict[str, int] = {}
    out = []
    for event in iter_trace(jsonl_path):
        component = event["component"]
        tid = tids.setdefault(component, len(tids) + 1)
        args: Dict[str, object] = {
            "bytes": event["bytes"],
            "outcome": event["outcome"],
        }
        if event.get("detail"):
            args.update(event["detail"])
        out.append(
            {
                "name": event["op"],
                "cat": component,
                "ph": "X",
                "ts": event["t"] * 1e6,
                "dur": event["latency_s"] * 1e6,
                "pid": 1,
                "tid": tid,
                "args": args,
            }
        )
    doc = {
        "traceEvents": out,
        "displayTimeUnit": "ms",
        "otherData": {"dropped_events": dropped},
    }
    # One json.dumps call runs the C encoder; json.dump streams through
    # the pure-Python one.  Both write the same bytes.
    with open(chrome_path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc))
        fh.write("\n")
    return len(out)
