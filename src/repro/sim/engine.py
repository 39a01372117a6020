"""Periodic timers over the simulated clock.

Most storage operations in this reproduction are *synchronous*: the caller
asks a device for an operation, the device computes its service latency,
and the clock advances.  The machine's background daemons are the
exception -- the write buffer's age-bounded flush, the buffer cache's
30-second sync, the file-system checkpoint and battery settlement -- and
each is a periodic timer on this engine.

The engine owns a :class:`~repro.sim.clock.SimClock` and a heap of
pending firings.  Callers pump every firing due up to a timestamp
(:meth:`Engine.run_until`), which is what trace replay does between
records.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, List, Tuple

from repro.obs import runtime as obs_runtime
from repro.sim.clock import SimClock

#: One pending firing: (when, seq, interval, action, name).  Firings
#: order by ``(when, seq)``; the sequence number, drawn once per push,
#: makes ties fire in the order they were scheduled.
_Firing = Tuple[float, int, float, Callable[[], None], str]


class Engine:
    """Heap-ordered periodic timers over a shared :class:`SimClock`."""

    def __init__(self) -> None:
        self.clock = SimClock()
        # Total timer firings executed so far.
        self.events_run = 0
        # Optional repro.obs.Tracer (the one active at construction);
        # when set, every firing is emitted as an "engine" trace record.
        self.tracer = obs_runtime.get_tracer()
        self._queue: List[_Firing] = []
        self._seq = itertools.count()

    def schedule_every(
        self, interval: float, action: Callable[[], None], name: str
    ) -> None:
        """Run ``action`` every ``interval`` seconds, the first time
        ``interval`` from now."""
        if interval <= 0.0:
            raise ValueError("repeat interval must be positive")
        heapq.heappush(
            self._queue,
            (self.clock.now + interval, next(self._seq), interval, action, name),
        )

    def run_until(self, when: float) -> int:
        """Execute every firing due at or before ``when``; advance the clock.

        The clock lands exactly on ``when`` afterwards (or stays put if
        ``when`` is in the past).  Returns the number of firings executed.
        """
        queue = self._queue
        if not queue or queue[0][0] > when:
            # Nothing due: the common case between replayed records.
            self.clock.advance_to(when)
            return 0
        clock = self.clock
        ran = 0
        # A firing always re-queues its timer, so the queue stays non-empty.
        while queue[0][0] <= when:
            due, _, interval, action, name = heapq.heappop(queue)
            clock.advance_to(due)
            # Reschedule even when the action raises: a periodic timer
            # (flush, battery tick) must survive a fault injected into
            # one firing, or one failure silently kills the series.
            try:
                action()
            finally:
                heapq.heappush(
                    queue,
                    (clock.now + interval, next(self._seq), interval, action, name),
                )
            self.events_run += 1
            ran += 1
            if self.tracer is not None:
                # "pending" is the queue depth after this firing; the
                # queue-depth monitor bounds it online.
                self.tracer.emit(
                    "engine", "event", due, outcome="ok",
                    detail={"pending": len(queue), "name": name},
                )
        clock.advance_to(when)
        return ran
