"""Unified observability layer: trace stream + metrics hub.

Every quantitative claim the reproduction regenerates flows through the
simulator's instrumentation, so that instrumentation is a first-class
subsystem:

- :mod:`repro.obs.tracer` -- a ring-buffered, seed-deterministic trace
  event stream and its one writer, which merges every job's records in
  memory into canonical order and writes the JSONL trace and its Chrome
  ``trace_event`` export.
- :mod:`repro.obs.hub` -- :class:`MetricsHub`, registering every
  component's :class:`~repro.sim.stats.StatRegistry` at machine-build
  time and rendering them, with the stats of every device the power
  model meters, as one merged JSON-able snapshot with derived rates.
- :mod:`repro.obs.schema` -- the trace-record schema and the one
  dependency-free, validating JSONL reader every trace tool reads
  through (``make trace-smoke``, ``analyze``, ``trace-diff``).
- :mod:`repro.obs.manifest` -- per-run manifests (config, seed, git
  rev, wall/sim time) written next to experiment output.
- :mod:`repro.obs.runtime` -- the process-wide active tracer the CLI
  scopes around an observed run; every traced component takes it when
  it is built.
- :mod:`repro.obs.analyze` -- streaming trace analytics: per-op latency
  percentiles, GC pause timelines, per-bank write amplification, engine
  dispatch aggregation, and diffs against another trace or a record's
  hub counters.
- :mod:`repro.obs.monitor` -- online invariant monitors subscribed to
  the live tracer, raising structured violations during a run.
"""

from repro.obs.hub import MetricsHub, flatten_numeric
from repro.obs.manifest import git_revision, run_manifest, write_manifest
from repro.obs.schema import (
    TRACE_EVENT_SCHEMA,
    TraceReader,
    validate_event,
)
from repro.obs.tracer import EVENT_FIELDS, Tracer, write_trace
from repro.obs import analyze, monitor, runtime

__all__ = [
    "Tracer",
    "EVENT_FIELDS",
    "write_trace",
    "analyze",
    "monitor",
    "MetricsHub",
    "flatten_numeric",
    "TRACE_EVENT_SCHEMA",
    "TraceReader",
    "validate_event",
    "run_manifest",
    "write_manifest",
    "git_revision",
    "runtime",
]
