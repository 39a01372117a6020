"""Discrete-event engine.

Most storage operations in this reproduction are *synchronous*: the caller
asks a device for an operation, the device computes its service latency,
and the clock advances.  A handful of behaviours are genuinely
*asynchronous* -- periodic write-buffer flushes, battery discharge ticks,
background garbage collection, injected battery failures -- and those are
modelled as events on this engine.

The engine owns a :class:`~repro.sim.clock.SimClock` and a heap-ordered
queue of :class:`Event` records.  Callers pump all events due up to a
timestamp (:meth:`Engine.run_until`), which is what trace replay does
between records.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.obs import runtime as obs_runtime
from repro.sim.clock import SimClock


@dataclass(order=True)
class Event:
    """A scheduled callback.

    Events order by ``(when, seq)``; the sequence number makes ordering
    stable and deterministic when several events share a timestamp.
    """

    when: float
    seq: int
    action: Callable[[], None] = field(compare=False)
    name: str = field(default="", compare=False)
    cancelled: bool = field(default=False, compare=False)
    # Owning engine (set at schedule time) so cancellation can keep the
    # engine's live-event counter exact without scanning the queue.
    _engine: "Optional[Engine]" = field(default=None, compare=False, repr=False)
    # True once the event has left the queue (ran or was dropped).
    _departed: bool = field(default=False, compare=False, repr=False)

    def cancel(self) -> None:
        """Mark the event dead; it will be skipped when it surfaces."""
        if self.cancelled:
            return
        self.cancelled = True
        if self._engine is not None and not self._departed:
            self._engine._pending -= 1


class Engine:
    """Heap-ordered discrete-event loop over a shared :class:`SimClock`."""

    def __init__(self) -> None:
        self.clock = SimClock()
        self._queue: List[Event] = []
        self._seq = itertools.count()
        self._events_run = 0
        # Queued, not-yet-cancelled events: a live counter (schedule +1,
        # run/cancel -1), not a queue scan; the engine's trace records
        # carry it as their "pending" detail.
        self._pending = 0
        # Optional repro.obs.Tracer (the one active at construction);
        # when set, every executed event is emitted as an "engine" trace
        # record.
        self.tracer = obs_runtime.get_tracer()

    @property
    def events_run(self) -> int:
        """Total number of events executed so far (for tests/diagnostics)."""
        return self._events_run

    def schedule_at(self, when: float, action: Callable[[], None], name: str = "") -> Event:
        """Schedule ``action`` to run at absolute time ``when``."""
        if when < self.clock.now:
            raise ValueError(
                f"cannot schedule event {name!r} at {when} before now ({self.clock.now})"
            )
        event = Event(when=when, seq=next(self._seq), action=action, name=name, _engine=self)
        heapq.heappush(self._queue, event)
        self._pending += 1
        return event

    def schedule(self, delay: float, action: Callable[[], None], name: str = "") -> Event:
        """Schedule ``action`` to run ``delay`` seconds from now."""
        if delay < 0.0:
            raise ValueError(f"cannot schedule event {name!r} with negative delay {delay}")
        return self.schedule_at(self.clock.now + delay, action, name=name)

    def schedule_every(
        self,
        interval: float,
        action: Callable[[], None],
        name: str = "",
    ) -> Event:
        """Schedule ``action`` to repeat every ``interval`` seconds, the
        first time ``interval`` from now.

        Returns the *first* event; cancelling it stops the whole series
        (each firing checks the original event's cancelled flag before
        rescheduling, so cancellation propagates).
        """
        if interval <= 0.0:
            raise ValueError("repeat interval must be positive")
        # Route through schedule_at so the root event gets the same
        # pending accounting as every other event.
        root = self.schedule_at(self.clock.now + interval, lambda: None, name=name)

        def fire() -> None:
            if root.cancelled:
                return
            # Reschedule even when the action raises: a periodic timer
            # (flush, battery tick) must survive a fault injected into
            # one firing, or one failure silently kills the series.
            try:
                action()
            finally:
                if not root.cancelled:
                    self.schedule(interval, fire, name=name)

        root.action = fire
        return root

    def _retire(self, event: Event) -> None:
        """Account an event leaving the queue."""
        event._departed = True
        if not event.cancelled:
            self._pending -= 1

    def _pop_due(self, horizon: float) -> Optional[Event]:
        while self._queue and self._queue[0].when <= horizon:
            event = heapq.heappop(self._queue)
            cancelled = event.cancelled
            self._retire(event)
            if not cancelled:
                return event
        return None

    def run_until(self, when: float) -> int:
        """Execute every event due at or before ``when``; advance the clock.

        The clock lands exactly on ``when`` afterwards (or stays put if
        ``when`` is in the past).  Returns the number of events executed.
        """
        queue = self._queue
        if not queue or queue[0].when > when:
            # Nothing due: the common case between replayed records.
            self.clock.advance_to(when)
            return 0
        ran = 0
        while True:
            event = self._pop_due(when)
            if event is None:
                break
            self.clock.advance_to(event.when)
            event.action()
            self._events_run += 1
            ran += 1
            if self.tracer is not None:
                # "pending" is the live queue depth after this dispatch;
                # the queue-depth monitor bounds it online.
                detail = {"pending": self._pending}
                if event.name:
                    detail["name"] = event.name
                self.tracer.emit(
                    "engine", "event", event.when, outcome="ok", detail=detail,
                )
        self.clock.advance_to(when)
        return ran
