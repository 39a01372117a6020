"""Cooperative process scheduler over the discrete-event engine.

The kernel request path needs more than one client issuing I/O against a
shared machine, but the whole simulation is built on *synchronous*
call-down: an operation computes its latency and the caller advances the
clock.  Rather than rewrite every layer in continuation-passing style,
this module runs each client as a **generator-based cooperative process**:

- A process is a generator that ``yield``\\ s the absolute sim time at
  which it wants to perform its next step, then performs the step
  (synchronously, against the shared clock) when resumed.
- The :class:`Scheduler` keeps a heap of ``(resume_time, spawn_seq,
  process)`` entries.  Each iteration pops the earliest entry, pumps the
  engine with ``engine.run_until(max(resume_time, now))`` -- exactly the
  fast-forward the synchronous replay loop performs between trace
  records -- and resumes the generator for one step.

With a single process this loop is *literally* the seed replay loop
(fast-forward, dispatch, repeat), which is what makes single-client runs
through the scheduler numerically identical to the synchronous path (see
``tests/test_equivalence.py``).  With several processes, steps interleave
in global timestamp order and the shared clock serializes them: a step
that wanted to run at ``t`` but finds the clock already at ``t' > t``
has been **dispatch-delayed** by the other clients' traffic -- that delay
is the kernel-level queueing E14 measures, on top of the device-level
stalls (busy flash bank, disk spin-up) devices report as the ``wait``
a device access returns beside its latency.

Determinism rules (pinned by tests):

1. Ready entries order by ``(resume_time, spawn_seq)``.  Ties at the
   same timestamp resume in spawn order -- never by dict/hash order.
2. The engine is pumped *before* every step with ``run_until(max(t,
   now))``, so periodic timers (flush, sync, battery) fire exactly as
   they would under the synchronous loop, regardless of client count.
3. A process resumed late (clock already past its requested time) runs
   at the current clock; the clock never moves backwards.
4. The scheduler never preempts: each step runs to its next ``yield``
   atomically.  All interleaving happens at yield points only.
"""

from __future__ import annotations

import heapq
from typing import Generator, List, Optional, Tuple

from repro.sim.engine import Engine


class Process:
    """One cooperative process: a generator yielding resume times."""

    __slots__ = (
        "name",
        "seq",
        "gen",
        "steps",
        "dispatch_delay_total",
        "dispatch_delay_max",
        "done",
        "error",
    )

    def __init__(
        self,
        gen: Generator[float, None, None],
        name: str,
        seq: int,
    ) -> None:
        self.name = name
        self.seq = seq
        self.gen = gen
        self.steps = 0
        # Accumulated (and max) lateness: how long steps ran after the
        # time they asked for, because other clients held the clock.
        self.dispatch_delay_total = 0.0
        self.dispatch_delay_max = 0.0
        self.done = False
        self.error: Optional[BaseException] = None

    def snapshot(self) -> dict:
        return {
            "name": self.name,
            "steps": self.steps,
            "dispatch_delay_total_s": self.dispatch_delay_total,
            "dispatch_delay_max_s": self.dispatch_delay_max,
            "done": self.done,
        }


class Scheduler:
    """Deterministic cooperative scheduler over a shared :class:`Engine`."""

    def __init__(self, engine: Engine) -> None:
        self.engine = engine
        self.processes: List[Process] = []
        self._ready: List[Tuple[float, int, Process]] = []
        self._spawn_seq = 0
        self.steps_run = 0

    def spawn(
        self, gen: Generator[float, None, None], name: str = "proc"
    ) -> Process:
        """Register a process and prime it to its first yield.

        Priming runs the generator's prologue (before its first
        ``yield``) immediately, in spawn order -- process bodies should
        not touch the machine before first yielding.
        """
        proc = Process(gen, name=name, seq=self._spawn_seq)
        self._spawn_seq += 1
        self.processes.append(proc)
        try:
            first = next(gen)
        except StopIteration:
            proc.done = True
            return proc
        heapq.heappush(self._ready, (float(first), proc.seq, proc))
        return proc

    def run(self) -> None:
        """Run every spawned process to completion.

        Raises the first process exception after marking the process
        failed; remaining processes are left un-run (the machine state
        is suspect once any client has crashed mid-operation).
        """
        engine = self.engine
        while self._ready:
            when, _, proc = heapq.heappop(self._ready)
            # Fast-forward timers exactly as the synchronous replay loop
            # does between records (determinism rule 2).
            engine.run_until(max(when, engine.clock.now))
            delay = engine.clock.now - when
            if delay > 0.0:
                proc.dispatch_delay_total += delay
                if delay > proc.dispatch_delay_max:
                    proc.dispatch_delay_max = delay
            proc.steps += 1
            self.steps_run += 1
            try:
                nxt = next(proc.gen)
            except StopIteration:
                proc.done = True
                continue
            except BaseException as exc:
                proc.done = True
                proc.error = exc
                raise
            heapq.heappush(self._ready, (float(nxt), proc.seq, proc))

    def snapshot(self) -> dict:
        return {
            "steps_run": self.steps_run,
            "processes": [p.snapshot() for p in self.processes],
        }
