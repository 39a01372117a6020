"""Unified observability layer: trace stream + metrics hub.

Every quantitative claim the reproduction regenerates flows through the
simulator's instrumentation, so that instrumentation is a first-class
subsystem:

- :mod:`repro.obs.tracer` -- a ring-buffered, seed-deterministic trace
  event stream with JSONL and Chrome ``trace_event`` sinks.
- :mod:`repro.obs.hub` -- :class:`MetricsHub`, registering every
  component's :class:`~repro.sim.stats.StatRegistry` and device stats at
  machine-build time and rendering one merged JSON-able snapshot with
  derived rates and delta-since-mark support.
- :mod:`repro.obs.schema` -- the trace-record schema and a
  dependency-free JSONL validator (``make trace-smoke``).
- :mod:`repro.obs.manifest` -- per-run manifests (config, seed, git
  rev, wall/sim time) written next to experiment output.
- :mod:`repro.obs.runtime` -- the process-wide active tracer the CLI
  installs and :class:`MobileComputer` picks up at build time.
- :mod:`repro.obs.analyze` -- streaming trace analytics: per-op latency
  percentiles, GC pause timelines, per-bank write amplification, engine
  dispatch aggregation, and diffs against another trace or a record's
  hub counters.
- :mod:`repro.obs.monitor` -- online invariant monitors subscribed to
  the live tracer, raising structured violations during a run.
"""

from repro.obs.hub import MetricsHub, flatten_numeric
from repro.obs.manifest import git_revision, run_manifest, write_manifest
from repro.obs.schema import TRACE_EVENT_SCHEMA, validate_event, validate_jsonl
from repro.obs.tracer import (
    EVENT_FIELDS,
    Tracer,
    jsonl_to_chrome,
    merge_shards_to_jsonl,
    shard_filename,
)
from repro.obs import analyze, monitor, runtime

__all__ = [
    "Tracer",
    "EVENT_FIELDS",
    "shard_filename",
    "merge_shards_to_jsonl",
    "jsonl_to_chrome",
    "analyze",
    "monitor",
    "MetricsHub",
    "flatten_numeric",
    "TRACE_EVENT_SCHEMA",
    "validate_event",
    "validate_jsonl",
    "run_manifest",
    "write_manifest",
    "git_revision",
    "runtime",
]
