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

Each monitor declares the trace components its ``check`` reads
(:attr:`Monitor.components`), and :class:`MonitorSet` subscribes its
``observe`` to the tracer for exactly those components.  Monitors see
the raw event *tuples* (``EVENT_FIELDS`` order) straight from
``Tracer.emit`` -- before any ring drop, so their view is complete even
when the buffered trace is truncated.  Every emit of a traced run costs
one dict lookup on its component; an event some monitors read costs
one ``observe`` plus one ``check`` call per such monitor, and an event
none reads (every device record) costs nothing more.
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
    """Base class: dispatches events, collects bounded violations."""

    #: Registry name (:func:`build_monitors` key); subclasses override.
    name = "monitor"
    #: The trace components ``check`` reads; the tracer routes only
    #: their events here.  Subclasses override.
    components: Tuple[str, ...] = ()
    #: Stop recording (but keep counting) beyond this many violations.
    max_violations = 100

    def __init__(self) -> None:
        #: Events routed to this monitor (those of its ``components``).
        self.events_seen = 0
        self.violation_count = 0
        self.violations: List[Violation] = []

    # Tracer observer entry point: record is an EVENT_FIELDS tuple.
    def observe(self, record: tuple) -> None:
        self.events_seen += 1
        t, component, op, nbytes, latency_s, outcome, detail = record
        self.check(t, component, op, nbytes, latency_s, outcome, detail)

    def check(
        self,
        t: float,
        component: str,
        op: str,
        nbytes: int,
        latency_s: float,
        outcome: str,
        detail: Optional[dict],
    ) -> None:
        raise NotImplementedError

    def finish(self) -> None:
        """End-of-run hook for invariants needing stream closure."""

    def violate(self, t: float, message: str, **detail: object) -> None:
        self.violation_count += 1
        if len(self.violations) < self.max_violations:
            self.violations.append(Violation(self.name, t, message, dict(detail)))


def _is_machine_reset(component: str, op: str) -> bool:
    return component == "machine" and op in ("build", "reboot")


class BufferConservationMonitor(Monitor):
    """Buffered bytes must evolve exactly as the event stream dictates.

    Tracks an estimate from put (+bytes, overwrite nets out the ``prev``
    detail), restore (+bytes), flush/drop (-bytes) and checks it never
    goes negative; on ``power_loss`` the reported lost bytes must equal
    the estimate.  Resets on machine build/reboot markers.
    """

    name = "buffer-conservation"
    components = ("machine", "writebuffer")

    def __init__(self) -> None:
        super().__init__()
        self.buffered = 0

    def check(self, t, component, op, nbytes, latency_s, outcome, detail) -> None:
        if _is_machine_reset(component, op):
            self.buffered = 0
            return
        if component != "writebuffer":
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
    components = ("writebuffer",)

    def __init__(self, slack_s: float = 600.0) -> None:
        super().__init__()
        self.slack_s = slack_s

    def check(self, t, component, op, nbytes, latency_s, outcome, detail) -> None:
        if component != "writebuffer" or op != "flush" or not detail:
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
    components = ("engine",)

    def __init__(self, bound: int = 100_000) -> None:
        super().__init__()
        self.bound = bound
        self.max_pending = 0

    def check(self, t, component, op, nbytes, latency_s, outcome, detail) -> None:
        if component != "engine" or op != "event" or not detail:
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
    components = ("machine", "storage-manager", "writebuffer")

    def __init__(self) -> None:
        super().__init__()
        self.read_only_since: Optional[float] = None

    def check(self, t, component, op, nbytes, latency_s, outcome, detail) -> None:
        if _is_machine_reset(component, op):
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
            return
        if (
            self.read_only_since is not None
            and component == "writebuffer"
            and op == "put"
        ):
            self.violate(
                t,
                "write buffered after read-only degradation at "
                f"t={self.read_only_since:.6f}",
                read_only_since=self.read_only_since,
            )


#: Name -> class registry.  The CLI's ``--monitors`` attaches all of
#: them; :func:`build_monitors` picks a subset by name for library use.
MONITORS: Dict[str, Type[Monitor]] = {
    cls.name: cls
    for cls in (
        BufferConservationMonitor,
        BufferAgeBoundMonitor,
        QueueDepthBoundMonitor,
        ReadOnlyTransitionMonitor,
    )
}


def build_monitors(names: Optional[List[str]] = None) -> List[Monitor]:
    """Instantiate monitors by registry name (all of them by default)."""
    if names is None:
        names = list(MONITORS)
    unknown = [n for n in names if n not in MONITORS]
    if unknown:
        known = ", ".join(sorted(MONITORS))
        raise ValueError(f"unknown monitor(s) {unknown}; known: {known}")
    return [MONITORS[n]() for n in names]


class MonitorSet:
    """Subscribe a set of monitors to one tracer, each for its own
    components, and report on them together."""

    def __init__(self, monitors: List[Monitor]) -> None:
        self.monitors = monitors
        self._tracer: Optional[Tracer] = None
        self._emitted_at_attach = 0
        self._events_observed = 0

    def attach(self, tracer: Tracer) -> None:
        self._tracer = tracer
        self._emitted_at_attach = tracer.emitted
        for monitor in self.monitors:
            tracer.subscribe(monitor.observe, monitor.components)

    def detach(self) -> None:
        if self._tracer is not None:
            self._events_observed = self.events_observed
            for monitor in self.monitors:
                self._tracer.unsubscribe(monitor.observe)
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
