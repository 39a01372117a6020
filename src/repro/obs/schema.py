"""Trace-record schema and the one validating trace reader.

The trace writer (:func:`repro.obs.tracer.write_trace`) puts one object
per line with the fields below.  Every tool reads a trace file through
:class:`TraceReader`, which parses each line once, checks it against
the schema and yields only valid events, keeping the first problems
with their line numbers.  The validator is deliberately
dependency-free (no jsonschema): ``make trace-smoke`` runs it over a
freshly recorded stream in CI, and tests use it to pin the schema
against accidental drift.
"""

from __future__ import annotations

import json
from typing import Dict, Iterator, List, Tuple

#: field -> (required, allowed python types)
TRACE_EVENT_SCHEMA: Dict[str, Tuple[bool, tuple]] = {
    "t": (True, (int, float)),
    "component": (True, (str,)),
    "op": (True, (str,)),
    "bytes": (True, (int,)),
    "latency_s": (True, (int, float)),
    "outcome": (True, (str,)),
    "detail": (False, (dict,)),
    # Stamped by the canonical merge (tracer.write_trace): position
    # among the originating job's records and the job's submission
    # index.  Optional, so a hand-written trace may leave them out.
    "seq": (False, (int,)),
    "shard": (False, (int,)),
}


def validate_event(obj: object) -> List[str]:
    """Return a list of schema violations (empty when the event is valid)."""
    errors: List[str] = []
    if not isinstance(obj, dict):
        return [f"event is {type(obj).__name__}, expected object"]
    for field, (required, types) in TRACE_EVENT_SCHEMA.items():
        if field not in obj:
            if required:
                errors.append(f"missing required field {field!r}")
            continue
        value = obj[field]
        if not isinstance(value, types) or isinstance(value, bool):
            errors.append(
                f"field {field!r} is {type(value).__name__}, "
                f"expected {'/'.join(t.__name__ for t in types)}"
            )
    for field in obj:
        if field not in TRACE_EVENT_SCHEMA:
            errors.append(f"unknown field {field!r}")
    if not errors:
        if obj["t"] < 0:
            errors.append("t (sim time) cannot be negative")
        if obj["bytes"] < 0:
            errors.append("bytes cannot be negative")
        if obj["latency_s"] < 0:
            errors.append("latency_s cannot be negative")
        for field in ("seq", "shard"):
            if field in obj and obj[field] < 0:
                errors.append(f"{field} cannot be negative")
    return errors


class TraceReader:
    """One streaming, validating pass over a JSONL trace file.

    Iterating parses each non-blank line once and yields the events
    that pass :func:`validate_event`.  Lines that do not parse or break
    the schema are skipped; ``valid`` counts the yielded events and
    ``errors`` keeps the first ``max_errors`` problems, each naming its
    line (the count keeps going).
    """

    max_errors = 20

    def __init__(self, path: str) -> None:
        self.path = path
        self.valid = 0
        self.errors: List[str] = []

    def __iter__(self) -> Iterator[dict]:
        errors = self.errors
        with open(self.path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError as exc:
                    if len(errors) < self.max_errors:
                        errors.append(f"line {lineno}: not JSON ({exc})")
                    continue
                problems = validate_event(obj)
                if problems:
                    if len(errors) < self.max_errors:
                        errors.append(f"line {lineno}: " + "; ".join(problems))
                    continue
                self.valid += 1
                yield obj
