"""Deterministic simulation substrate.

This package provides the small, dependency-free kernel every other
subsystem builds on:

- :mod:`repro.sim.clock` -- a virtual clock measured in seconds.
- :mod:`repro.sim.engine` -- heap-ordered periodic timers such as the
  write buffer's age-bounded flush and battery settlement.
- :mod:`repro.sim.stats` -- counters, latency histograms and time-weighted
  averages used for all experiment metrics.
- :mod:`repro.sim.rand` -- deterministic random streams so every experiment
  is exactly reproducible from a seed.
- :mod:`repro.sim.sched` -- a cooperative generator-based process scheduler
  (the kernel request path's multi-client substrate).

All simulated time is in **seconds**, all sizes in **bytes**, all energy in
**joules**.  Nothing in this package knows about storage devices.
"""

from repro.sim.clock import SimClock
from repro.sim.engine import Engine
from repro.sim.rand import RandomStream, substream
from repro.sim.sched import Process, Scheduler
from repro.sim.stats import (
    Counter,
    Histogram,
    StatRegistry,
    TimeWeightedValue,
)

__all__ = [
    "SimClock",
    "Engine",
    "Process",
    "Scheduler",
    "RandomStream",
    "substream",
    "Counter",
    "Histogram",
    "TimeWeightedValue",
    "StatRegistry",
]
