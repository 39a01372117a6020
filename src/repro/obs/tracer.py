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
- **Nothing for the garbage collector.**  The ring is one flat list of
  fields, :data:`EVENT_FIELDS` in order, seven slots per event: an emit
  extends it with a tuple that is freed again at once, so a long traced
  run leaves no GC-tracked object per event behind (a kept tuple per
  event set off a collection every few hundred events, and every one
  of them grew the older generations that the rarer collections walk).
  :attr:`Tracer.records` builds the tuples only when it is read.

Sink: :func:`write_trace` takes every job's buffered records
(:attr:`Tracer.records`, the :data:`EVENT_FIELDS` tuples), merges them
in memory into one canonical stream and writes it twice from that one
sequence: as JSON Lines, one object per line (the schema lives in
:mod:`repro.obs.schema`), and in Chrome ``trace_event`` format (load it
at ``chrome://tracing`` or https://ui.perfetto.dev for a flame-chart
view per component).

Live consumers (the online invariant monitors in
:mod:`repro.obs.monitor`) :meth:`~Tracer.subscribe` a callable for the
``(component, op)`` pairs they read and see each such event as it is
emitted -- including events the ring later drops, so a monitor's view
is never truncated.  The cost model: every emit extends the ring and
makes one dict lookup on its component, which is all a device record
(most of a trace; no monitor reads one) costs.  An event of a
subscribed component also bumps that component's count
(:meth:`~Tracer.events_from`) and looks up its op; only an event some
observer reads builds a record tuple and calls each of its observers,
one frame apiece.

**Canonical order.**  Every traced CLI run is a list of jobs, each with
its own tracer -- a serial run is one job -- and a job's records come
back to the writer in memory (across ``-j N`` worker processes, through
``Pool.map``).  :func:`write_trace` merges them with a sort on
``(t, seq, shard)`` where ``seq`` is the record's position among its
job's buffered records and ``shard`` is the job's submission index.
Because both keys are functions of the (seed-deterministic) job content
and submission order -- never of which worker process ran the job or
when -- the written files are byte-identical for any ``-j``, and every
``.jsonl`` line carries ``seq``/``shard`` fields.

The records are serialized only at the end of the whole run, so an
emitted ``detail`` dict must have string keys and must not be mutated
after the emit: every emit site builds a fresh dict literal.
"""

from __future__ import annotations

import json
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: Ordered field names of one trace record (the JSONL object keys).
EVENT_FIELDS = ("t", "component", "op", "bytes", "latency_s", "outcome", "detail")
#: Ring slots per record.
_WIDTH = len(EVENT_FIELDS)

_EventTuple = Tuple[float, str, str, int, float, str, Optional[dict]]
_Observer = Callable[[_EventTuple], None]


class Tracer:
    """Ring-buffered collector of typed trace events."""

    def __init__(self, capacity: int = 1 << 20) -> None:
        if capacity < 2:
            raise ValueError("tracer capacity must be at least 2")
        self.capacity = capacity
        # The ring: each record's fields in EVENT_FIELDS order, flat.
        self._events: list = []
        self._limit = capacity * _WIDTH
        #: Events discarded because the ring buffer filled.
        self.dropped = 0
        #: component -> op -> the observers subscribed to that pair, in
        #: subscription order.  A component is here while any pair of
        #: it has an observer.
        self._routes: Dict[str, Dict[str, Tuple[_Observer, ...]]] = {}
        #: component -> events emitted from it while it was in _routes.
        self._counts: Dict[str, int] = {}

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
        """Record one event.  Hot path: extends the flat ring, then
        counts the event and calls the observers of ``(component, op)``
        only if ``component`` has a subscriber."""
        events = self._events
        if len(events) >= self._limit:
            drop = self.capacity // 2
            del events[: drop * _WIDTH]
            self.dropped += drop
        events += (t, component, op, nbytes, latency_s, outcome, detail)
        routes = self._routes.get(component)
        if routes is not None:
            self._counts[component] += 1
            observers = routes.get(op)
            if observers is not None:
                record = (t, component, op, nbytes, latency_s, outcome, detail)
                for observer in observers:
                    observer(record)

    @property
    def emitted(self) -> int:
        """Total events ever emitted (including ones the ring dropped)."""
        return self.dropped + len(self._events) // _WIDTH

    def subscribe(self, observer: _Observer, pairs: Iterable[Tuple[str, str]]) -> None:
        """Call ``observer(record)`` on every future emit of one of the
        ``(component, op)`` ``pairs`` (before any ring drop, so live
        consumers see the full stream of what they read), and count
        every event of their components from now on."""
        for component, op in pairs:
            routes = self._routes.setdefault(component, {})
            self._counts.setdefault(component, 0)
            observers = routes.get(op, ())
            if observer not in observers:
                routes[op] = observers + (observer,)

    def unsubscribe(self, observer: _Observer) -> None:
        """Stop calling ``observer`` for every pair."""
        for component, routes in list(self._routes.items()):
            for op, observers in list(routes.items()):
                kept = tuple(o for o in observers if o != observer)
                if kept:
                    routes[op] = kept
                else:
                    del routes[op]
            if not routes:
                del self._routes[component]

    def events_from(self, components: Iterable[str]) -> int:
        """Events emitted from ``components`` while each had a
        subscriber (whether or not any observer read them)."""
        return sum(self._counts.get(component, 0) for component in components)

    def __len__(self) -> int:
        return len(self._events) // _WIDTH

    @property
    def records(self) -> List[_EventTuple]:
        """The buffered records, oldest first, as :data:`EVENT_FIELDS`
        tuples (a new list, built on each read)."""
        return list(zip(*[iter(self._events)] * _WIDTH))


# ----------------------------------------------------------------------
# The one writer: canonical merge, JSONL and Chrome export.
# ----------------------------------------------------------------------

#: ``json.dumps(event, sort_keys=True)``, without a new encoder per line.
_encode_line = json.JSONEncoder(sort_keys=True).encode
#: Chrome events encoded per ``json.dumps`` call (C encoder, bounded list).
_CHROME_CHUNK = 4096


def write_trace(
    path: str, jobs: Sequence[Sequence[_EventTuple]], dropped: int = 0
) -> int:
    """Merge every job's records into one canonical stream and write it
    to ``path`` (JSON Lines) and ``path.chrome.json``; returns the
    number of events written.

    Records are sorted on ``(t, seq, shard)``: ``seq`` is a record's
    index within its job's list (emission order after any ring drop)
    and ``shard`` is the job's index in ``jobs`` (submission order).
    Both keys depend only on job content and submission order, so the
    files are identical for any worker count.  Each JSONL line is the
    event object with sorted keys plus its ``seq``/``shard``.

    The Chrome file holds complete ('X') events: sim seconds map to
    microseconds, each component gets its own ``tid`` so the viewer lays
    components out as separate tracks, an event's ``detail`` keys join
    its ``args`` in sorted order, and ``dropped`` (the rings' drop
    count) lands in ``otherData``.  Its bytes are those of one
    ``json.dumps`` of the whole document, encoded a chunk of events at a
    time so no list of every Chrome event is ever built.
    """
    rows = [
        (record[0], seq, shard, record)
        for shard, records in enumerate(jobs)
        for seq, record in enumerate(records)
    ]
    # (seq, shard) is unique, so the sort never compares two records.
    rows.sort()
    tids: Dict[str, int] = {}
    chunk: List[dict] = []
    with open(path, "w", encoding="utf-8") as jsonl, open(
        path + ".chrome.json", "w", encoding="utf-8"
    ) as chrome:
        chrome.write('{"traceEvents": [')
        separator = ""
        for t, seq, shard, record in rows:
            _t, component, op, nbytes, latency_s, outcome, detail = record
            event = {
                "t": t, "component": component, "op": op, "bytes": nbytes,
                "latency_s": latency_s, "outcome": outcome,
                "seq": seq, "shard": shard,
            }
            args: Dict[str, object] = {"bytes": nbytes, "outcome": outcome}
            if detail is not None:
                event["detail"] = detail
                args.update(sorted(detail.items()))
            jsonl.write(_encode_line(event))
            jsonl.write("\n")
            chunk.append(
                {
                    "name": op,
                    "cat": component,
                    "ph": "X",
                    "ts": t * 1e6,
                    "dur": latency_s * 1e6,
                    "pid": 1,
                    "tid": tids.setdefault(component, len(tids) + 1),
                    "args": args,
                }
            )
            if len(chunk) == _CHROME_CHUNK:
                chrome.write(separator + json.dumps(chunk)[1:-1])
                separator = ", "
                chunk = []
        if chunk:
            chrome.write(separator + json.dumps(chunk)[1:-1])
        chrome.write('], "displayTimeUnit": "ms", "otherData": ')
        chrome.write(json.dumps({"dropped_events": dropped}))
        chrome.write("}\n")
    return len(rows)
