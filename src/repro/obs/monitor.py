"""Online invariant monitors over the live trace stream.

A :class:`Monitor` subscribes to a :class:`~repro.obs.tracer.Tracer`
(via :class:`MonitorSet`) and checks a cross-component invariant on
every event *while the simulation runs*, raising structured
:class:`Violation` records instead of waiting for post-hoc tests.  The
stock monitors cover the invariants the test suite pins offline:

- :class:`BufferConservationMonitor` -- bytes buffered in the write
  buffer evolve exactly as put/flush/drop/restore events say they do
  (never negative; a power loss loses exactly what was buffered);
- :class:`BufferAgeBoundMonitor` -- no entry evades the ``age_limit_s``
  battery-loss exposure bound (paper §3.3: bounded data loss on battery
  failure);
- :class:`QueueDepthBoundMonitor` -- the engine's pending-event count
  stays below a sanity bound (catches runaway timer leaks live);
- :class:`ReadOnlyTransitionMonitor` -- read-only degradation is a
  one-way, single-shot transition per machine, and no buffered write is
  accepted after it (paper §4: flash exhaustion).

Monitors key their per-machine state off the ``machine build`` /
``machine reboot`` marker events the hierarchy emits, so one trace
spanning many sequentially-built machines (an experiment sweep) checks
each machine independently.

Each monitor declares the ``(component, op)`` pairs it reads
(:attr:`Monitor.reads`), and :class:`MonitorSet` subscribes its one
handler, :meth:`Monitor.observe`, to the tracer for exactly those
pairs.  Monitors see the raw event *tuples* (``EVENT_FIELDS`` order)
straight from ``Tracer.emit`` -- before any ring drop, so their view is
complete even when the buffered trace is truncated.  The cost model:
an event a monitor reads costs one ``observe`` frame per such monitor;
an event of a component some monitor reads, with an op none reads, costs
a count and a lookup in the tracer and no call; every other event
(every device record) costs nothing more.  ``events_seen`` -- the
events of the monitor's components while it was attached, read or not
-- comes from the tracer's per-component counts, not from the handler.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Type

from repro.obs.tracer import Tracer


@dataclass
class Violation:
    """One invariant violation, timestamped in sim time."""

    monitor: str
    t: float
    message: str
    detail: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "monitor": self.monitor,
            "t": self.t,
            "message": self.message,
            "detail": dict(self.detail),
        }

    def __str__(self) -> str:
        return f"[{self.monitor}] t={self.t:.6f}: {self.message}"


class Monitor:
    """Base class: one event handler, bounded violations."""

    #: Registry name (:func:`build_monitors` key); subclasses override.
    name = "monitor"
    #: The ``(component, op)`` pairs ``observe`` reads; the tracer
    #: routes only their events here.  Subclasses override.
    reads: Tuple[Tuple[str, str], ...] = ()
    #: Stop recording (but keep counting) beyond this many violations.
    max_violations = 100

    def __init__(self) -> None:
        self.violation_count = 0
        self.violations: List[Violation] = []
        self._tracer: Optional[Tracer] = None
        # events_seen at the last attach, and the tracer's count then.
        self._seen = 0
        self._count_at_attach = 0

    @property
    def components(self) -> Tuple[str, ...]:
        """The components of :attr:`reads`, in order."""
        return tuple(dict.fromkeys(component for component, _op in self.reads))

    @property
    def events_seen(self) -> int:
        """Events of :attr:`components` emitted while attached."""
        if self._tracer is None:
            return self._seen
        return self._seen + self._tracer.events_from(self.components) - self._count_at_attach

    def attach(self, tracer: Tracer) -> None:
        self._tracer = tracer
        self._count_at_attach = tracer.events_from(self.components)
        tracer.subscribe(self.observe, self.reads)

    def detach(self) -> None:
        if self._tracer is not None:
            self._seen = self.events_seen
            self._tracer.unsubscribe(self.observe)
            self._tracer = None

    def observe(self, record: tuple) -> None:
        """Check one event: ``record`` is an ``EVENT_FIELDS`` tuple.
        Ignores events outside :attr:`reads`, so feeding it a whole
        stream checks the same as routing it."""
        raise NotImplementedError

    def finish(self) -> None:
        """End-of-run hook for invariants needing stream closure."""

    def violate(self, t: float, message: str, **detail: object) -> None:
        self.violation_count += 1
        if len(self.violations) < self.max_violations:
            self.violations.append(Violation(self.name, t, message, dict(detail)))


#: The machine marker events that reset per-machine monitor state.
_MACHINE_RESETS = (("machine", "build"), ("machine", "reboot"))


class BufferConservationMonitor(Monitor):
    """Buffered bytes must evolve exactly as the event stream dictates.

    Tracks an estimate from put (+bytes, overwrite nets out the ``prev``
    detail), restore (+bytes), flush/drop (-bytes) and checks it never
    goes negative; on ``power_loss`` the reported lost bytes must equal
    the estimate.  Resets on machine build/reboot markers.
    """

    name = "buffer-conservation"
    reads = _MACHINE_RESETS + tuple(
        ("writebuffer", op) for op in ("put", "restore", "flush", "drop", "power_loss")
    )

    def __init__(self) -> None:
        super().__init__()
        self.buffered = 0

    def observe(self, record: tuple) -> None:
        t, component, op, nbytes, latency_s, outcome, detail = record
        if component != "writebuffer":
            if (component, op) in _MACHINE_RESETS:
                self.buffered = 0
            return
        if op == "put":
            if outcome == "writethrough":
                return  # never entered the buffer
            self.buffered += nbytes
            if outcome == "overwrite":
                prev = (detail or {}).get("prev")
                if prev is None:
                    self.violate(t, "overwrite put missing 'prev' detail")
                else:
                    self.buffered -= prev
        elif op == "restore":
            self.buffered += nbytes
        elif op in ("flush", "drop"):
            self.buffered -= nbytes
        elif op == "power_loss":
            if nbytes != self.buffered:
                self.violate(
                    t,
                    f"power loss reported {nbytes} bytes lost, "
                    f"monitor tracked {self.buffered} buffered",
                    reported=nbytes,
                    tracked=self.buffered,
                )
            self.buffered = 0
            return
        if self.buffered < 0:
            self.violate(
                t,
                f"buffered-bytes estimate went negative ({self.buffered}) "
                f"after {op}",
                op=op,
                buffered=self.buffered,
            )
            self.buffered = 0


class BufferAgeBoundMonitor(Monitor):
    """No buffered entry may evade its battery-loss age bound.

    Every flush event carries ``age_s`` and ``limit_s``: an age-reason
    flush must actually be over the limit, and *no* flush may leave an
    entry dirty longer than ``limit_s + slack_s`` (slack covers the
    period of the manager's flush timer plus flush-time clock advance).
    """

    name = "buffer-age-bound"
    reads = (("writebuffer", "flush"),)
    slack_s = 600.0

    def observe(self, record: tuple) -> None:
        t, component, op, nbytes, latency_s, outcome, detail = record
        if op != "flush" or component != "writebuffer" or not detail:
            return
        age = detail.get("age_s")
        limit = detail.get("limit_s")
        if age is None or limit is None:
            return
        if outcome == "age" and age < limit - 1e-9:
            self.violate(
                t,
                f"age-triggered flush at age {age:.3f}s, below limit {limit:.3f}s",
                age_s=age,
                limit_s=limit,
            )
        if age > limit + self.slack_s:
            self.violate(
                t,
                f"entry stayed dirty {age:.3f}s, over limit {limit:.3f}s "
                f"+ slack {self.slack_s:.0f}s",
                age_s=age,
                limit_s=limit,
                outcome=outcome,
            )


class QueueDepthBoundMonitor(Monitor):
    """Engine pending-event depth must stay under a sanity bound."""

    name = "engine-queue-depth"
    reads = (("engine", "event"),)
    bound = 100_000

    def __init__(self) -> None:
        super().__init__()
        self.max_pending = 0

    def observe(self, record: tuple) -> None:
        t, component, op, nbytes, latency_s, outcome, detail = record
        if op != "event" or component != "engine" or not detail:
            return
        pending = detail.get("pending")
        if pending is None:
            return
        if pending > self.max_pending:
            self.max_pending = pending
        if pending > self.bound:
            self.violate(
                t,
                f"engine queue depth {pending} exceeds bound {self.bound}",
                pending=pending,
                bound=self.bound,
            )


class ReadOnlyTransitionMonitor(Monitor):
    """Read-only degradation is one-way and write-terminal per machine.

    Each ``read_only`` event's ``transition`` counter must be exactly 1
    (a manager never degrades twice), and once a machine has degraded no
    further write may enter its write buffer until the next machine
    build/reboot marker.
    """

    name = "read-only-transition"
    reads = _MACHINE_RESETS + (("storage-manager", "read_only"), ("writebuffer", "put"))

    def __init__(self) -> None:
        super().__init__()
        self.read_only_since: Optional[float] = None

    def observe(self, record: tuple) -> None:
        t, component, op, nbytes, latency_s, outcome, detail = record
        if component == "writebuffer":
            if op == "put" and self.read_only_since is not None:
                self.violate(
                    t,
                    "write buffered after read-only degradation at "
                    f"t={self.read_only_since:.6f}",
                    read_only_since=self.read_only_since,
                )
            return
        if (component, op) in _MACHINE_RESETS:
            self.read_only_since = None
            return
        if component == "storage-manager" and op == "read_only":
            transition = (detail or {}).get("transition")
            if transition != 1:
                self.violate(
                    t,
                    f"read-only transition counter is {transition!r}, expected 1",
                    transition=transition,
                )
            self.read_only_since = t


#: Name -> class registry.  The CLI's ``--monitors`` attaches all of
#: them, through :func:`build_monitors`.
MONITORS: Dict[str, Type[Monitor]] = {
    cls.name: cls
    for cls in (
        BufferConservationMonitor,
        BufferAgeBoundMonitor,
        QueueDepthBoundMonitor,
        ReadOnlyTransitionMonitor,
    )
}


def build_monitors() -> List[Monitor]:
    """One instance of every registered monitor, in registry order."""
    return [cls() for cls in MONITORS.values()]


class MonitorSet:
    """Subscribe a set of monitors to one tracer, each for the pairs it
    reads, and report on them together."""

    def __init__(self, monitors: List[Monitor]) -> None:
        self.monitors = monitors
        self._tracer: Optional[Tracer] = None
        self._emitted_at_attach = 0
        self._events_observed = 0

    def attach(self, tracer: Tracer) -> None:
        self._tracer = tracer
        self._emitted_at_attach = tracer.emitted
        for monitor in self.monitors:
            monitor.attach(tracer)

    def detach(self) -> None:
        if self._tracer is not None:
            self._events_observed = self.events_observed
            for monitor in self.monitors:
                monitor.detach()
            self._tracer = None

    @property
    def events_observed(self) -> int:
        """Events in the whole stream while attached, whether or not a
        monitor read them."""
        if self._tracer is None:
            return self._events_observed
        return self._events_observed + self._tracer.emitted - self._emitted_at_attach

    def finish(self) -> None:
        for monitor in self.monitors:
            monitor.finish()

    def violations(self) -> List[Violation]:
        out: List[Violation] = []
        for monitor in self.monitors:
            out.extend(monitor.violations)
        out.sort(key=lambda v: (v.t, v.monitor))
        return out

    @property
    def violation_count(self) -> int:
        return sum(m.violation_count for m in self.monitors)

    def summary(self) -> dict:
        return {
            "monitors": {
                m.name: {
                    "events_seen": m.events_seen,
                    "violations": m.violation_count,
                }
                for m in self.monitors
            },
            "violations": [v.to_dict() for v in self.violations()],
            "violation_count": self.violation_count,
        }

    def render(self) -> str:
        names = ", ".join(m.name for m in self.monitors)
        if not self.violation_count:
            return (
                f"monitors ok: {len(self.monitors)} monitor(s) [{names}] "
                f"observed {self.events_observed} event(s), 0 violations"
            )
        lines = [
            f"MONITOR VIOLATIONS: {self.violation_count} across "
            f"{len(self.monitors)} monitor(s) [{names}]"
        ]
        lines.extend(f"  {v}" for v in self.violations()[:50])
        if self.violation_count > 50:
            lines.append(f"  ... and {self.violation_count - 50} more")
        return "\n".join(lines)
