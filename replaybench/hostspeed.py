"""Host-speed reference for the benchmark's timings.

The benchmark host is shared, and its CPU speed swings by up to ~40% for
seconds to minutes at a time.  A fixed pure-Python loop run right next to
the timed work slows down with it, and scaling a timing by the loop's
speed gives the timing on a host of reference speed.  The loop touches
the interpreter paths the simulator lives on (attribute access, method
calls, small objects, dict and bytes operations) and none of the
simulator's code, so a change to the simulator never moves it.
"""

from __future__ import annotations

import gc
import time

#: Iterations of the loop in one :func:`calibrate` round.
ITERATIONS = 1000
#: Seconds one round takes on the reference host.
REFERENCE_S = 1.0e-3
#: Share of the loop's slowdown that the simulator shares.  The loop
#: swings more than a replay does: over back-to-back replays of one trace
#: on a shared 2-core host, log(replay time) against log(loop time) had
#: slope 0.74 (office-solid), 0.80 (office-disk) and 0.87 (database-ftl),
#: each with correlation above 0.96.
EXPONENT = 0.8


class _Node:
    __slots__ = ("key", "size")

    def __init__(self, key: int, size: int) -> None:
        self.key = key
        self.size = size

    def end(self, offset: int) -> int:
        return self.key + offset


_BUFFER = bytes(4096)


def _loop() -> int:
    table = {}
    total = 0
    for i in range(ITERATIONS):
        node = _Node(i, i & 7)
        table[(i & 255, node.size)] = node
        start = i & 1023
        total += node.end(i) + len(_BUFFER[start:start + 64])
        other = table.get((i & 127, 3))
        if other is not None:
            total += other.key
    return total


def calibrate(rounds: int = 1) -> float:
    """Run the loop ``rounds`` times; returns the wall seconds taken.

    The cyclic garbage collector is off meanwhile: a collection of the
    program's heap would otherwise charge the program's work to the loop.
    The loop makes no reference cycles.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(rounds):
            _loop()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def to_reference(seconds: float, calibration_s: float, rounds: int) -> float:
    """``seconds`` measured while ``rounds`` calibration rounds took
    ``calibration_s``, scaled to the reference host: unchanged where a
    round took REFERENCE_S."""
    return seconds * (REFERENCE_S * rounds / calibration_s) ** EXPONENT
