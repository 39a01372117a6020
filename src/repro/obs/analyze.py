"""Streaming trace analytics: the *consume* side of ``repro.obs``.

:func:`analyze_trace` reads a ``.jsonl`` trace (raw shard or canonical
merged file -- ``seq``/``shard`` fields are ignored) in one streaming
pass, never materializing the file, and aggregates:

- per-component / per-op counts, byte totals, outcome tallies, and
  latency percentiles (p50/p95/p99) from deterministic log-binned
  histograms (:class:`LatencyHistogram`);
- GC pause statistics and a bounded reclaim timeline plus the cleaning
  overhead ratio (bytes copied by GC per user byte written);
- per-flash-bank wear (programs / programmed bytes / erases) and write
  amplification (physical programmed bytes over logical store writes),
  per bank and per device;
- engine dispatch aggregation: event counts per timer name, queue-depth
  high-water mark, mean inter-dispatch interval per name;
- fault-injection and read-only-degradation tallies.

:func:`diff_summaries` compares two analyses and flags relative metric
deltas beyond a threshold; :func:`diff_against_trajectory` cross-links a
trace against the ``hub`` block of a committed record such as
``benchmarks/work_counts.json`` (the subset of MetricsHub counters a
trace can independently re-derive: :data:`TRACE_COMPARABLE_HUB_KEYS`).

Everything here is deterministic: identical traces produce identical
summaries, identical renderings, and identical diffs, which is what lets
tests pin golden numbers and lets ``trace-diff`` mean something.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

from repro.obs.tracer import iter_trace

#: Flattened-summary path fragments excluded from diffs: positional
#: timeline buckets shift legitimately when event counts change.
_DIFF_EXCLUDE = (".timeline.",)


# ----------------------------------------------------------------------
# Deterministic streaming aggregates.
# ----------------------------------------------------------------------


class LatencyHistogram:
    """Log-binned latency histogram with O(1) memory per decade.

    Bins are geometric: ``BINS_PER_DECADE`` bins per factor of 10
    starting at ``MIN_LATENCY`` (1 ns), giving ~15% relative resolution.
    Percentiles return the geometric midpoint of the bin holding the
    requested rank -- a pure function of the recorded multiset, so two
    identical traces always report identical percentiles.
    """

    BINS_PER_DECADE = 16
    MIN_LATENCY = 1e-9

    __slots__ = ("count", "zeros", "total", "max", "_min", "bins")

    def __init__(self) -> None:
        self.count = 0
        self.zeros = 0
        self.total = 0.0
        self.max = 0.0
        self._min: Optional[float] = None
        self.bins: Dict[int, int] = {}

    def record(self, latency_s: float) -> None:
        self.count += 1
        self.total += latency_s
        if latency_s > self.max:
            self.max = latency_s
        if self._min is None or latency_s < self._min:
            self._min = latency_s
        if latency_s <= 0.0:
            self.zeros += 1
            return
        idx = int(
            math.floor(
                math.log10(latency_s / self.MIN_LATENCY) * self.BINS_PER_DECADE
            )
        )
        if idx < 0:
            idx = 0
        self.bins[idx] = self.bins.get(idx, 0) + 1

    def merge(self, other: "LatencyHistogram") -> None:
        self.count += other.count
        self.zeros += other.zeros
        self.total += other.total
        if other.max > self.max:
            self.max = other.max
        if other._min is not None and (self._min is None or other._min < self._min):
            self._min = other._min
        for idx, n in other.bins.items():
            self.bins[idx] = self.bins.get(idx, 0) + n

    @property
    def min(self) -> float:
        return 0.0 if self._min is None else self._min

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Latency at quantile ``q`` in (0, 1]; geometric bin midpoint."""
        if self.count == 0:
            return 0.0
        rank = max(1, math.ceil(q * self.count))
        if rank <= self.zeros:
            return 0.0
        seen = self.zeros
        base = 10.0 ** (1.0 / self.BINS_PER_DECADE)
        for idx in sorted(self.bins):
            seen += self.bins[idx]
            if seen >= rank:
                return self.MIN_LATENCY * (base ** idx) * math.sqrt(base)
        return self.max

    def summary(self) -> dict:
        return {
            "count": self.count,
            "mean_s": self.mean,
            "min_s": self.min,
            "max_s": self.max,
            "p50_s": self.percentile(0.50),
            "p95_s": self.percentile(0.95),
            "p99_s": self.percentile(0.99),
        }


class Timeline:
    """Bounded ``(t, value)`` series: on overflow, adjacent points merge
    pairwise (sum-preserving decimation), so memory stays O(cap) while
    totals stay exact."""

    __slots__ = ("cap", "points")

    def __init__(self, cap: int = 512) -> None:
        if cap < 2:
            raise ValueError("timeline cap must be at least 2")
        self.cap = cap
        self.points: List[List[float]] = []

    def add(self, t: float, value: float) -> None:
        pts = self.points
        if len(pts) >= self.cap:
            merged = [
                [pts[i][0], pts[i][1] + pts[i + 1][1]]
                for i in range(0, len(pts) - 1, 2)
            ]
            if len(pts) % 2:
                merged.append(pts[-1])
            self.points = merged
            pts = self.points
        pts.append([t, value])


class OpStats:
    """Count / byte / outcome / latency aggregate for one (component, op)."""

    __slots__ = ("count", "bytes", "outcomes", "latency",
                 "total_latency_s", "wait_s", "stalled")

    def __init__(self) -> None:
        self.count = 0
        self.bytes = 0
        self.outcomes: Dict[str, int] = {}
        self.latency = LatencyHistogram()
        # Stall accounting: devices report the queueing/spin-up portion
        # of each access in the event's ``detail.wait``; splitting it
        # out separates pure service time from time spent waiting.
        self.total_latency_s = 0.0
        self.wait_s = 0.0
        self.stalled = 0

    def feed(self, nbytes: int, latency_s: float, outcome: str,
             wait_s: float = 0.0) -> None:
        self.count += 1
        self.bytes += nbytes
        self.outcomes[outcome] = self.outcomes.get(outcome, 0) + 1
        self.latency.record(latency_s)
        self.total_latency_s += latency_s
        if wait_s > 0.0:
            self.wait_s += wait_s
            self.stalled += 1

    def summary(self) -> dict:
        return {
            "count": self.count,
            "bytes": self.bytes,
            "outcomes": dict(sorted(self.outcomes.items())),
            "latency": self.latency.summary(),
            "wait_s": self.wait_s,
            "service_s": max(0.0, self.total_latency_s - self.wait_s),
            "stalled": self.stalled,
        }


class _BankStats:
    __slots__ = ("programs", "programmed_bytes", "erases")

    def __init__(self) -> None:
        self.programs = 0
        self.programmed_bytes = 0
        self.erases = 0


class _EngineName:
    __slots__ = ("count", "first_t", "last_t")

    def __init__(self, t: float) -> None:
        self.count = 0
        self.first_t = t
        self.last_t = t


class TraceAnalysis:
    """Single-pass aggregation of a trace event stream."""

    def __init__(self) -> None:
        self.events = 0
        self.machines = 0
        self.reboots = 0
        self.ops: Dict[Tuple[str, str], OpStats] = {}
        # GC (flashstore cleaning).
        self.gc_cleans = 0
        self.gc_erase_failures = 0
        self.gc_reclaimed_bytes = 0
        self.gc_copy_bytes = 0
        self.gc_pause = LatencyHistogram()
        self.gc_timeline = Timeline()
        # Per-(device, bank) wear; logical store writes per (device, bank).
        self.banks: Dict[Tuple[str, int], _BankStats] = {}
        self.logical: Dict[Tuple[str, int], int] = {}
        self.logical_untagged_bytes = 0
        # Engine dispatch.
        self.engine_events = 0
        self.engine_max_pending = 0
        self.engine_names: Dict[str, _EngineName] = {}
        # Faults / degradation.
        self.fault_counts: Dict[str, int] = {}
        self.read_only_reasons: Dict[str, int] = {}

    # ------------------------------------------------------------------

    def feed(self, event: dict) -> None:
        component = event["component"]
        op = event["op"]
        nbytes = event["bytes"]
        latency_s = event["latency_s"]
        outcome = event["outcome"]
        detail = event.get("detail")
        self.events += 1

        stats = self.ops.get((component, op))
        if stats is None:
            stats = self.ops[(component, op)] = OpStats()
        wait_s = detail.get("wait", 0.0) if detail else 0.0
        stats.feed(nbytes, latency_s, outcome, wait_s=wait_s)

        if component == "engine":
            if op == "event":
                self.engine_events += 1
                if detail:
                    pending = detail.get("pending", 0)
                    if pending > self.engine_max_pending:
                        self.engine_max_pending = pending
                    name = detail.get("name")
                    if name is not None:
                        t = event["t"]
                        entry = self.engine_names.get(name)
                        if entry is None:
                            entry = self.engine_names[name] = _EngineName(t)
                        entry.count += 1
                        if t < entry.first_t:
                            entry.first_t = t
                        if t > entry.last_t:
                            entry.last_t = t
            return
        if op == "program":
            if detail and "bank" in detail:
                bank = self._bank(component, detail["bank"])
                bank.programs += 1
                bank.programmed_bytes += nbytes
            return
        if op == "erase":
            if detail and "bank" in detail:
                self._bank(component, detail["bank"]).erases += 1
            return
        if component == "flashstore":
            if op == "write":
                if detail and "bank" in detail:
                    key = (detail.get("device", "flash"), detail["bank"])
                    self.logical[key] = self.logical.get(key, 0) + nbytes
                else:
                    self.logical_untagged_bytes += nbytes
            elif op == "gc_clean":
                if outcome == "cleaned":
                    self.gc_cleans += 1
                else:
                    self.gc_erase_failures += 1
                self.gc_reclaimed_bytes += nbytes
                self.gc_pause.record(latency_s)
                self.gc_timeline.add(event["t"], float(nbytes))
            elif op == "gc_copy":
                self.gc_copy_bytes += nbytes
            return
        if component == "faults":
            self.fault_counts[op] = self.fault_counts.get(op, 0) + 1
            return
        if component == "storage-manager" and op == "read_only":
            reason = (detail or {}).get("reason", "unknown")
            self.read_only_reasons[reason] = self.read_only_reasons.get(reason, 0) + 1
            return
        if component == "machine":
            if op == "build":
                self.machines += 1
            elif op == "reboot":
                self.reboots += 1

    def _bank(self, device: str, bank: int) -> _BankStats:
        stats = self.banks.get((device, bank))
        if stats is None:
            stats = self.banks[(device, bank)] = _BankStats()
        return stats

    # ------------------------------------------------------------------
    # Derived views.
    # ------------------------------------------------------------------

    def component_latency(self) -> Dict[str, LatencyHistogram]:
        """Per-component latency histogram (merged over the component's ops)."""
        merged: Dict[str, LatencyHistogram] = {}
        for (component, _op), stats in sorted(self.ops.items()):
            hist = merged.get(component)
            if hist is None:
                hist = merged[component] = LatencyHistogram()
            hist.merge(stats.latency)
        return merged

    def component_bytes(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for (component, _op), stats in self.ops.items():
            out[component] = out.get(component, 0) + stats.bytes
        return out

    def logical_bytes_total(self) -> int:
        return sum(self.logical.values()) + self.logical_untagged_bytes

    def write_amplification(self) -> Dict[str, dict]:
        """Physical programmed bytes over logical store writes.

        Keyed per device and per ``device:bank``; a bank with physical
        programs but no logical writes (e.g. GC-only traffic) reports
        the raw byte figures with amplification ``None``.
        """
        per_bank: Dict[str, dict] = {}
        per_device_phys: Dict[str, int] = {}
        per_device_logical: Dict[str, int] = {}
        for (device, bank), stats in sorted(self.banks.items()):
            logical = self.logical.get((device, bank), 0)
            per_device_phys[device] = (
                per_device_phys.get(device, 0) + stats.programmed_bytes
            )
            per_device_logical[device] = per_device_logical.get(device, 0) + logical
            per_bank[f"{device}:{bank}"] = {
                "physical_bytes": stats.programmed_bytes,
                "logical_bytes": logical,
                "amplification": (
                    stats.programmed_bytes / logical if logical else None
                ),
            }
        overall = {}
        for device in sorted(per_device_phys):
            logical = per_device_logical[device]
            overall[device] = {
                "physical_bytes": per_device_phys[device],
                "logical_bytes": logical,
                "amplification": (
                    per_device_phys[device] / logical if logical else None
                ),
            }
        return {"overall": overall, "per_bank": per_bank}

    def summary(self) -> dict:
        """JSON-able aggregate of the whole trace."""
        logical_total = self.logical_bytes_total()
        engine_names = {}
        for name, entry in sorted(self.engine_names.items()):
            span = entry.last_t - entry.first_t
            engine_names[name] = {
                "count": entry.count,
                "first_t": entry.first_t,
                "last_t": entry.last_t,
                "mean_interval_s": (
                    span / (entry.count - 1) if entry.count > 1 else 0.0
                ),
            }
        return {
            "events": self.events,
            "machines": self.machines,
            "reboots": self.reboots,
            "ops": {
                f"{component}.{op}": stats.summary()
                for (component, op), stats in sorted(self.ops.items())
            },
            "components": {
                component: hist.summary()
                for component, hist in sorted(self.component_latency().items())
            },
            "gc": {
                "cleans": self.gc_cleans,
                "erase_failures": self.gc_erase_failures,
                "reclaimed_bytes": self.gc_reclaimed_bytes,
                "copy_bytes": self.gc_copy_bytes,
                "pause": self.gc_pause.summary(),
                "cleaning_overhead": (
                    self.gc_copy_bytes / logical_total if logical_total else 0.0
                ),
                "timeline": [list(p) for p in self.gc_timeline.points],
            },
            "write_amplification": self.write_amplification(),
            "wear": {
                f"{device}:{bank}": {
                    "programs": stats.programs,
                    "programmed_bytes": stats.programmed_bytes,
                    "erases": stats.erases,
                }
                for (device, bank), stats in sorted(self.banks.items())
            },
            "engine": {
                "events": self.engine_events,
                "max_pending": self.engine_max_pending,
                "names": engine_names,
            },
            "faults": dict(sorted(self.fault_counts.items())),
            "read_only": {
                "transitions": sum(self.read_only_reasons.values()),
                "reasons": dict(sorted(self.read_only_reasons.items())),
            },
        }


def analyze_trace(path: str) -> TraceAnalysis:
    """Stream a JSONL trace through a :class:`TraceAnalysis`."""
    analysis = TraceAnalysis()
    for event in iter_trace(path):
        analysis.feed(event)
    return analysis


# ----------------------------------------------------------------------
# Rendering.
# ----------------------------------------------------------------------


def _fmt_lat(seconds: float) -> str:
    if seconds <= 0:
        return "0"
    if seconds < 1e-3:
        return f"{seconds * 1e6:.1f}us"
    if seconds < 1.0:
        return f"{seconds * 1e3:.2f}ms"
    return f"{seconds:.3f}s"


def render_summary(summary: dict, top_ops: int = 20) -> str:
    """ASCII report over :meth:`TraceAnalysis.summary` output."""
    from repro.analysis.report import format_table

    sections = [
        f"trace: {summary['events']} events, "
        f"{summary['machines']} machine build(s), "
        f"{summary['reboots']} reboot(s)"
    ]
    comp_rows = [
        [
            name,
            stats["count"],
            _fmt_lat(stats["p50_s"]),
            _fmt_lat(stats["p95_s"]),
            _fmt_lat(stats["p99_s"]),
            _fmt_lat(stats["max_s"]),
        ]
        for name, stats in summary["components"].items()
    ]
    sections.append(
        format_table(
            ["component", "events", "p50", "p95", "p99", "max"],
            comp_rows,
            title="Per-component latency",
        )
    )
    op_rows = sorted(
        summary["ops"].items(), key=lambda kv: (-kv[1]["count"], kv[0])
    )[:top_ops]
    sections.append(
        format_table(
            ["op", "count", "bytes", "p50", "p95", "p99", "stalled", "wait_s"],
            [
                [
                    name,
                    stats["count"],
                    stats["bytes"],
                    _fmt_lat(stats["latency"]["p50_s"]),
                    _fmt_lat(stats["latency"]["p95_s"]),
                    _fmt_lat(stats["latency"]["p99_s"]),
                    stats.get("stalled", 0) or None,
                    f"{stats['wait_s']:.3f}" if stats.get("wait_s") else None,
                ]
                for name, stats in op_rows
            ],
            title=f"Busiest operations (top {min(top_ops, len(summary['ops']))})",
        )
    )
    gc = summary["gc"]
    sections.append(
        format_table(
            ["metric", "value"],
            [
                ["cleans", gc["cleans"]],
                ["erase failures", gc["erase_failures"]],
                ["reclaimed bytes", gc["reclaimed_bytes"]],
                ["copied bytes", gc["copy_bytes"]],
                ["cleaning overhead", f"{gc['cleaning_overhead']:.4f}"],
                ["pause p50", _fmt_lat(gc["pause"]["p50_s"])],
                ["pause p95", _fmt_lat(gc["pause"]["p95_s"])],
                ["pause p99", _fmt_lat(gc["pause"]["p99_s"])],
                ["pause max", _fmt_lat(gc["pause"]["max_s"])],
            ],
            title="GC / cleaning",
        )
    )
    wa = summary["write_amplification"]
    bank_rows = []
    for key, stats in wa["per_bank"].items():
        wear = summary["wear"].get(key, {})
        amp = stats["amplification"]
        bank_rows.append(
            [
                key,
                wear.get("programs", 0),
                stats["physical_bytes"],
                stats["logical_bytes"],
                wear.get("erases", 0),
                f"{amp:.3f}" if amp is not None else "-",
            ]
        )
    for device, stats in wa["overall"].items():
        amp = stats["amplification"]
        bank_rows.append(
            [
                f"{device} (all)",
                "",
                stats["physical_bytes"],
                stats["logical_bytes"],
                "",
                f"{amp:.3f}" if amp is not None else "-",
            ]
        )
    if bank_rows:
        sections.append(
            format_table(
                ["bank", "programs", "physical B", "logical B", "erases", "WA"],
                bank_rows,
                title="Flash wear / write amplification",
            )
        )
    engine = summary["engine"]
    engine_rows = [
        [
            name,
            stats["count"],
            _fmt_lat(stats["mean_interval_s"]),
            f"{stats['first_t']:.3f}",
            f"{stats['last_t']:.3f}",
        ]
        for name, stats in sorted(
            engine["names"].items(), key=lambda kv: (-kv[1]["count"], kv[0])
        )[:top_ops]
    ]
    if engine["events"]:
        sections.append(
            format_table(
                ["timer", "dispatches", "mean interval", "first t", "last t"],
                engine_rows,
                title=(
                    f"Engine dispatch ({engine['events']} events, "
                    f"max pending {engine['max_pending']})"
                ),
            )
        )
    if summary["faults"]:
        sections.append(
            format_table(
                ["fault", "count"],
                sorted(summary["faults"].items()),
                title="Injected faults",
            )
        )
    ro = summary["read_only"]
    if ro["transitions"]:
        sections.append(
            format_table(
                ["reason", "count"],
                sorted(ro["reasons"].items()),
                title=f"Read-only transitions ({ro['transitions']})",
            )
        )
    return "\n\n".join(sections)


# ----------------------------------------------------------------------
# Cross-run diff.
# ----------------------------------------------------------------------


def diff_summaries(
    baseline: dict, current: dict, threshold: float = 0.10
) -> List[Tuple[str, Optional[float], Optional[float], Optional[float]]]:
    """Flag metric deltas beyond ``threshold`` between two summaries.

    Returns ``(path, baseline, current, relative_delta)`` rows sorted by
    descending |delta| then path; a metric present on only one side
    reports ``None`` for the missing value and for the delta.  Timeline
    buckets are excluded (positional, not comparable).
    """
    from repro.obs.hub import flatten_numeric

    flat_a = flatten_numeric(baseline)
    flat_b = flatten_numeric(current)
    rows: List[Tuple[str, Optional[float], Optional[float], Optional[float]]] = []
    for path in sorted(set(flat_a) | set(flat_b)):
        if any(fragment in path for fragment in _DIFF_EXCLUDE):
            continue
        old = flat_a.get(path)
        new = flat_b.get(path)
        if old is None or new is None:
            rows.append((path, old, new, None))
            continue
        if old == new:
            continue
        if old == 0.0:
            rows.append((path, old, new, math.inf))
            continue
        delta = (new - old) / abs(old)
        if abs(delta) > threshold:
            rows.append((path, old, new, delta))
    rows.sort(
        key=lambda row: (
            -(abs(row[3]) if row[3] is not None else math.inf),
            row[0],
        )
    )
    return rows


#: MetricsHub counters a trace can independently re-derive from its own
#: event stream (:func:`trace_hub_metrics`): ``trace-diff --bench``
#: compares a trace against a record's ``hub`` block on exactly these.
TRACE_COMPARABLE_HUB_KEYS = (
    "flash_bytes_written",
    "flash_erases",
    "writebuffer_bytes_in",
    "writebuffer_flushed_bytes",
    "gc_bytes_copied",
)


def trace_hub_metrics(summary: dict) -> Dict[str, float]:
    """Re-derive, from a trace summary, the MetricsHub counters a
    record's ``hub`` block holds (:data:`TRACE_COMPARABLE_HUB_KEYS`).

    Only counters a trace can reconstruct appear; comparison happens on
    the intersection of keys.
    """
    ops = summary["ops"]

    def op_bytes(name: str) -> float:
        return float(ops[name]["bytes"]) if name in ops else 0.0

    def op_count(name: str) -> float:
        return float(ops[name]["count"]) if name in ops else 0.0

    out: Dict[str, float] = {}
    flash_written = sum(
        op_bytes(f"flash-data.{op}") for op in ("program", "write", "charge_write")
    )
    if flash_written:
        out["flash_bytes_written"] = flash_written
    erases = op_count("flash-data.erase")
    if erases:
        out["flash_erases"] = erases
    if "writebuffer.put" in ops:
        out["writebuffer_bytes_in"] = op_bytes("writebuffer.put")
    if "writebuffer.flush" in ops:
        out["writebuffer_flushed_bytes"] = op_bytes("writebuffer.flush")
    if summary["gc"]["copy_bytes"] or summary["gc"]["cleans"]:
        out["gc_bytes_copied"] = float(summary["gc"]["copy_bytes"])
    return out


def hub_metrics(hub) -> Dict[str, float]:
    """The :data:`TRACE_COMPARABLE_HUB_KEYS` counters of a live MetricsHub."""
    return {
        "flash_bytes_written": hub.device_stat("flash-data", "bytes_written"),
        "flash_erases": hub.device_stat("flash-data", "erases"),
        "writebuffer_bytes_in": hub.counter_value("writebuffer", "bytes_in"),
        "writebuffer_flushed_bytes": hub.counter_value("writebuffer", "flushed_bytes"),
        "gc_bytes_copied": hub.counter_value("flashstore", "gc_bytes_copied"),
    }


def trajectory_hub_metrics(record: dict) -> Dict[str, float]:
    """Trace-comparable subset of a record's ``hub`` block."""
    hub = record.get("hub") or {}
    return {key: float(hub[key]) for key in TRACE_COMPARABLE_HUB_KEYS if key in hub}


def diff_against_trajectory(
    summary: dict, bench_record: dict, threshold: float = 0.10
) -> List[Tuple[str, Optional[float], Optional[float], Optional[float]]]:
    """Compare a trace summary against a record's hub block.  Same row
    shape as :func:`diff_summaries`.

    Raises ``ValueError`` when the two share no trace-comparable key:
    an empty comparison must not pass as a clean one.
    """
    baseline = trajectory_hub_metrics(bench_record)
    derived = trace_hub_metrics(summary)
    shared = set(baseline) & set(derived)
    if not shared:
        raise ValueError(
            "the record and the trace share no trace-comparable hub counter "
            f"({', '.join(TRACE_COMPARABLE_HUB_KEYS)})"
        )
    return diff_summaries(
        {k: baseline[k] for k in shared},
        {k: derived[k] for k in shared},
        threshold,
    )


def render_diff(
    rows: List[Tuple[str, Optional[float], Optional[float], Optional[float]]],
) -> str:
    from repro.analysis.report import format_table

    if not rows:
        return "trace-diff: no metric deltas beyond threshold"

    def fmt(value: Optional[float]) -> str:
        if value is None:
            return "-"
        if value == int(value) and abs(value) < 1e15:
            return str(int(value))
        return f"{value:.6g}"

    table_rows = []
    for path, old, new, delta in rows:
        if delta is None:
            change = "only one side"
        elif math.isinf(delta):
            change = "from zero"
        else:
            change = f"{delta:+.1%}"
        table_rows.append([path, fmt(old), fmt(new), change])
    return format_table(
        ["metric", "baseline", "current", "delta"],
        table_rows,
        title=f"trace-diff: {len(rows)} metric(s) beyond threshold",
    )
