"""Virtual simulation clock.

The clock is the single source of truth for "now" inside a simulated
machine.  Devices never read wall-clock time; they advance the
:class:`SimClock` by the service latency of each operation, which makes
every run exactly reproducible and lets experiments compare organizations
in simulated seconds rather than host-CPU seconds.
"""

from __future__ import annotations


class SimClock:
    """A monotonically non-decreasing virtual clock, in seconds.

    The clock starts at zero.  Components either *advance* it (a synchronous
    device operation consumed latency) or *fast-forward* it to an absolute
    point (trace replay jumping to the next record's timestamp).
    """

    #: ``now`` is the current virtual time in seconds: a plain slot, read
    #: directly on every hot path.  Only :meth:`advance` and
    #: :meth:`advance_to` assign it, each behind its check
    #: (``tests/test_flat_accounting.py`` pins that no other module
    #: writes it).
    __slots__ = ("now",)

    def __init__(self, start: float = 0.0) -> None:
        if start < 0.0:
            raise ValueError("clock cannot start before time zero")
        self.now = float(start)

    def advance(self, delta: float) -> float:
        """Move time forward by ``delta`` seconds and return the new time.

        ``delta`` must be non-negative; simulated time never runs backwards.
        """
        if delta < 0.0:
            raise ValueError(f"cannot advance clock by negative delta {delta!r}")
        self.now += delta
        return self.now

    def advance_to(self, when: float) -> float:
        """Fast-forward to absolute time ``when`` if it is in the future.

        A ``when`` in the past is a no-op rather than an error: trace replay
        frequently issues a request whose timestamp has already been passed
        because the previous request ran long.  Returns the (possibly
        unchanged) current time.
        """
        if when > self.now:
            self.now = when
        return self.now

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimClock(now={self.now:.9f})"
