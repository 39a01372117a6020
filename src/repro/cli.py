"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``devices``      -- print the 1993 device catalog (E1's raw material).
- ``trends``       -- print the technology-trend tables and crossovers.
- ``workloads``    -- list the available synthetic workloads.
- ``run``          -- run one workload on one organization, print metrics.
- ``compare``      -- run one workload on every organization, side by side.
- ``experiments``  -- run experiment drivers (named ids, or all),
  optionally in parallel (``-j N`` fans them across a process pool;
  every driver is independent and seed-deterministic, so the tables are
  identical to a serial run) and optionally under cProfile
  (``--profile``).
- ``torture``      -- crash-consistency torture: power-cut sweep plus
  bit-flip and program-failure campaigns; exits non-zero on any
  invariant violation.
- ``metrics``      -- run a workload and print the merged
  :class:`~repro.obs.MetricsHub` snapshot (``--json`` for the full tree).
- ``analyze``      -- streaming analytics over a recorded ``.jsonl``
  trace: per-component/per-op latency percentiles, GC pause stats,
  per-bank write amplification and wear, engine dispatch aggregation.
- ``trace-diff``   -- compare two traces (or one trace against the
  ``hub`` block of a record such as ``benchmarks/work_counts.json`` via
  ``--bench``) and flag metric deltas beyond a threshold; ``--check``
  exits non-zero on any.
- ``trace-smoke``  -- tiny traced run validating the JSONL trace against
  its schema, the Chrome export, the hub/device accounting identity,
  that the hub's device energies sum to the power total, the online
  monitors (zero violations), and the ``analyze`` /
  ``trace-diff`` tooling, including that every ``analyze`` percentile
  lies within its op's or component's [min, max] (wired into
  ``make check``).

``run``, ``compare``, ``experiments``, ``metrics`` and ``torture``
accept ``--trace PATH`` and ``--monitors``, and every such observed run
takes one path.  :func:`_observed` calls the work under a fresh
:class:`~repro.obs.Tracer` (installed with
:func:`repro.obs.runtime.tracing`, so machines built inside pick it
up), attaches every stock online invariant monitor
(:mod:`repro.obs.monitor`) with ``--monitors``, and with ``--trace``
returns the tracer's buffered records in the job's meta.
``experiments`` runs it once per job (also across ``-j N`` worker
processes, whose records come back through ``Pool.map``); the other
four run as one in-process job.  :func:`_finish_observed` then merges
every job's records in memory (sort on ``(t, seq, shard)``), so the
trace is byte-identical for any ``-j``, and one writer emits them to
``PATH`` (JSONL) and ``PATH.chrome.json`` (Chrome ``trace_event``; load
it in ``chrome://tracing`` or Perfetto); a run manifest goes to
``PATH.manifest.json``.  :func:`_report_monitors` prints the monitor
report; any violation makes the command exit non-zero.  ``trace-smoke``
uses the same runner with a 2^16-event ring.

``analyze``, ``trace-diff`` and ``trace-smoke`` read a trace through the
one validating reader (:class:`~repro.obs.schema.TraceReader`), so
``trace-smoke`` validates and analyzes in a single pass, and
``analyze`` and ``trace-diff`` exit 2, naming the line, when a line
does not parse or breaks the schema.

Except for ``experiments --profile``, ``--trace``, and ``trace-smoke``
(which write under ``benchmarks/`` or the given path), everything
prints plain ASCII tables.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Callable, List, Optional, Tuple, TypeVar

from repro.analysis.experiments import ALL_EXPERIMENTS
from repro.analysis.report import format_kv, format_table, human_bytes, human_seconds
from repro.core.config import Organization, SystemConfig
from repro.core.hierarchy import MobileComputer
from repro.devices.catalog import MB, catalog_specs
from repro.obs import Tracer, run_manifest, runtime, write_manifest, write_trace
from repro.obs.monitor import MonitorSet, Violation, build_monitors
from repro.trace.workloads import WORKLOADS
from repro.trends.model import SmallConfigCostModel, default_trends_1993

_T = TypeVar("_T")


def _cmd_devices(_args) -> int:
    rows = []
    for spec in catalog_specs().values():
        rows.append(
            [
                spec.name,
                spec.kind,
                spec.read_per_byte_s * 1e9,
                spec.write_per_byte_s * 1e9,
                None if spec.erase_latency_s is None else spec.erase_latency_s * 1e3,
                spec.dollars_per_mb,
                spec.density_mb_per_cubic_inch,
            ]
        )
    print(
        format_table(
            ["device", "kind", "read_ns/B", "write_ns/B", "erase_ms", "$/MB", "MB/in^3"],
            rows,
            title="1993 device catalog (paper Section 2)",
        )
    )
    return 0


def _cmd_trends(_args) -> int:
    trends = default_trends_1993()
    rows = [
        [
            row["year"],
            row["dram_dollars_per_mb"],
            row["flash_dollars_per_mb"],
            row["disk_dollars_per_mb"],
        ]
        for row in trends.cost_table()
    ]
    print(format_table(["year", "DRAM $/MB", "flash $/MB", "disk $/MB"], rows,
                       title="cost trends (40%/yr semiconductor, 25%/yr disk)"))
    print()
    small = SmallConfigCostModel()
    print(
        format_kv(
            [
                ("DRAM/disk density crossover", f"{trends.dram_disk_density_crossover():.1f}"),
                ("DRAM/disk $/MB crossover", f"{trends.dram_disk_cost_crossover():.1f}"),
                ("40MB flash/disk parity (mfr assumptions)", f"{small.parity_year():.1f}"),
            ],
            title="crossovers",
        )
    )
    return 0


def _cmd_workloads(_args) -> int:
    rows = []
    for name, factory in sorted(WORKLOADS.items()):
        profile = factory()  # type: ignore[operator]
        rows.append(
            [
                name,
                profile.ops_per_second,
                profile.p_write + profile.p_whole_rewrite,
                profile.initial_files,
                int(profile.file_size_median),
            ]
        )
    print(
        format_table(
            ["workload", "ops/s", "write_frac", "files", "median_size_B"],
            rows,
            title="synthetic workloads (calibrated to Baker '91 / Ousterhout '85)",
        )
    )
    return 0


def _client_count(text: str) -> int:
    """argparse type of ``--clients``: an integer of at least 1."""
    try:
        clients = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if clients < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {clients}")
    return clients


def _machine_for(args) -> MobileComputer:
    config = SystemConfig(
        organization=Organization(args.organization),
        dram_bytes=int(args.dram_mb * MB),
        flash_bytes=int(args.flash_mb * MB),
        disk_bytes=int(args.disk_mb * MB),
        write_buffer_bytes=int(args.buffer_kb * 1024),
        seed=args.seed,
    )
    return MobileComputer(config)


def _metric_rows(metrics) -> list:
    return [
        ("mean write latency", human_seconds(metrics.mean_write_latency)),
        ("p95 write latency", human_seconds(metrics.p95_write_latency)),
        ("mean read latency", human_seconds(metrics.mean_read_latency)),
        ("app bytes written", human_bytes(metrics.app_bytes_written)),
        ("flash bytes programmed", human_bytes(metrics.flash_bytes_programmed)),
        ("write-traffic reduction", f"{metrics.write_traffic_reduction:.0%}"),
        ("flash erases", metrics.flash_erases),
        ("energy", f"{metrics.energy_joules:.2f} J"),
        ("average power", f"{metrics.average_power_watts * 1e3:.1f} mW"),
        ("storage cost (1993)", f"${metrics.storage_cost_dollars:,.0f}"),
    ]


def _cmd_run(args) -> int:
    machine = _machine_for(args)
    clients = args.clients
    report, metrics = machine.run_workload(
        args.workload, duration_s=args.duration, clients=clients
    )
    rows = [("organization", args.organization), ("workload", args.workload),
            ("records", report.records)]
    if clients > 1:
        rows.append(("clients", clients))
    rows += _metric_rows(metrics)
    if clients > 1:
        rows.append(
            ("dispatch delay (total)",
             f"{report.dispatch_delay_total_s:.2f} s")
        )
        for cid, stats in sorted(report.per_client.items()):
            rows.append((f"client {cid}", f"{stats['records']} ops"))
    print(
        format_kv(
            rows,
            title=f"{args.workload} on {args.organization} "
            f"({args.duration:.0f} simulated seconds)",
        )
    )
    return 0


def _cmd_compare(args) -> int:
    rows = []
    for org in Organization:
        args.organization = org.value
        machine = _machine_for(args)
        _report, metrics = machine.run_workload(
            args.workload, duration_s=args.duration,
            clients=args.clients,
        )
        rows.append(
            [
                org.value,
                metrics.mean_write_latency * 1e3,
                metrics.mean_read_latency * 1e3,
                metrics.energy_joules,
                metrics.flash_erases or None,
                f"{metrics.write_traffic_reduction:.0%}"
                if metrics.write_traffic_reduction
                else "-",
            ]
        )
    print(
        format_table(
            ["organization", "write_ms", "read_ms", "energy_J", "erases", "traffic_cut"],
            rows,
            title=f"{args.workload}, {args.duration:.0f} simulated seconds",
        )
    )
    return 0


def _run_driver(eid: str, full: bool, profile_dir: Optional[str]) -> str:
    """Run one experiment driver, optionally under cProfile."""
    driver = ALL_EXPERIMENTS[eid]
    if profile_dir is None:
        return driver(quick=not full).render()
    import cProfile
    import pstats

    os.makedirs(profile_dir, exist_ok=True)
    profile = cProfile.Profile()
    profile.enable()
    result = driver(quick=not full)
    profile.disable()
    profile.dump_stats(os.path.join(profile_dir, f"{eid}.pstats"))
    with open(os.path.join(profile_dir, f"{eid}.txt"), "w", encoding="utf-8") as fh:
        pstats.Stats(profile, stream=fh).sort_stats("cumulative").print_stats(30)
    return result.render()


# ----------------------------------------------------------------------
# Observed runs: the one tracer-and-monitor runner and its finisher.
# ----------------------------------------------------------------------


def _observed(
    run: Callable[[], _T],
    trace: bool = False,
    monitors: bool = False,
    capacity: int = 1 << 20,
) -> Tuple[_T, Optional[dict]]:
    """Call ``run()`` under its own tracer; return (its result, obs meta).

    With neither ``trace`` nor ``monitors`` the callable simply runs and
    meta is None.  Otherwise a fresh :class:`~repro.obs.Tracer` is
    installed process-wide for the call (so machines built inside pick
    it up; worker processes never share one) and ``monitors``
    subscribes every stock online monitor to the live stream.  Meta
    carries the ring's drop count, the monitor summary and, with
    ``trace``, the tracer's buffered records for
    :func:`_finish_observed`.
    """
    if not trace and not monitors:
        return run(), None
    monitor_set = MonitorSet(build_monitors()) if monitors else None
    # Monitors see every emit before the ring drops anything, so a run
    # that keeps no trace needs only a small ring.
    with runtime.tracing(Tracer(capacity if trace else 1024)) as tracer:
        if monitor_set is not None:
            monitor_set.attach(tracer)
        try:
            result = run()
        finally:
            if monitor_set is not None:
                monitor_set.detach()
                monitor_set.finish()
    meta: dict = {"dropped": tracer.dropped}
    if trace:
        meta["records"] = tracer.records
    if monitor_set is not None:
        meta["monitors"] = monitor_set.summary()
    return result, meta


def _finish_observed(
    trace: str,
    metas: List[dict],
    wall_start: float,
    command: str,
    seed: Optional[int] = None,
    config: object = None,
    sim_seconds: Optional[float] = None,
    **extra,
) -> None:
    """Merge every job's records in canonical ``(t, seq, shard)`` order
    into ``trace`` and ``trace.chrome.json``, then write
    ``trace.manifest.json``.
    """
    dropped = sum(meta["dropped"] for meta in metas)
    events = write_trace(trace, [meta["records"] for meta in metas], dropped)
    extra.update(events=events, dropped=dropped, shards=len(metas))
    monitor_summaries = [meta["monitors"] for meta in metas if "monitors" in meta]
    if monitor_summaries:
        extra["monitors"] = monitor_summaries
    write_manifest(
        trace + ".manifest.json",
        run_manifest(
            command=command,
            config=config,
            seed=seed,
            sim_seconds=sim_seconds,
            wall_seconds=time.perf_counter() - wall_start,
            extra=extra,
        ),
    )
    print(
        f"\ntrace written: {trace} ({events} events from {len(metas)} "
        f"shard(s), {dropped} dropped) + .chrome.json + .manifest.json",
        file=sys.stderr,
    )


def _report_monitors(jobs: List[Tuple[str, Optional[dict]]]) -> int:
    """Print the monitor report over ``(label, meta)`` jobs; 1 on any
    violation, 0 otherwise (and when no job ran monitors)."""
    summaries = [(label, meta["monitors"]) for label, meta in jobs
                 if meta is not None and "monitors" in meta]
    if not summaries:
        return 0
    total = sum(summary["violation_count"] for _label, summary in summaries)
    if total:
        print(f"MONITOR VIOLATIONS: {total} across {len(summaries)} job(s)",
              file=sys.stderr)
        for label, summary in summaries:
            for violation in summary["violations"][:20]:
                print(f"  {label}: {Violation(**violation)}", file=sys.stderr)
        return 1
    names = list(summaries[0][1]["monitors"])
    print(f"monitors ok: {len(names)} monitor(s) [{', '.join(names)}] "
          f"per job, 0 violations")
    return 0


def _experiment_worker(
    job: Tuple[str, bool, Optional[str], bool, bool],
) -> Tuple[str, str, Optional[dict]]:
    """Run one experiment job; returns (id, rendered table, obs meta).

    Top-level so a multiprocessing pool can pickle it.
    """
    eid, full, profile_dir, trace, monitors = job
    rendered, meta = _observed(
        lambda: _run_driver(eid, full, profile_dir), trace, monitors
    )
    return eid, rendered, meta


def _cmd_experiments(args) -> int:
    if args.all or not args.id:
        ids = list(ALL_EXPERIMENTS)
    else:
        ids = [eid.upper() for eid in args.id]
    unknown = [eid for eid in ids if eid not in ALL_EXPERIMENTS]
    if unknown:
        print(
            f"unknown experiment(s) {', '.join(unknown)}; "
            f"choose from {', '.join(ALL_EXPERIMENTS)}",
            file=sys.stderr,
        )
        return 2
    wall_start = time.perf_counter()
    profile_dir = args.profile_dir if args.profile else None
    jobs = [
        (eid, args.full, profile_dir, args.trace is not None, args.monitors)
        for eid in ids
    ]
    if args.jobs > 1 and len(jobs) > 1:
        import multiprocessing

        with multiprocessing.Pool(processes=min(args.jobs, len(jobs))) as pool:
            outputs = pool.map(_experiment_worker, jobs)
    else:
        outputs = [_experiment_worker(job) for job in jobs]
    # Pool.map preserves submission order, so parallel output (tables
    # and the merge's shard indices alike) is byte-identical to the
    # serial run.
    for _eid, rendered, _meta in outputs:
        print(rendered)
        print()
    if args.trace is not None:
        _finish_observed(
            args.trace, [meta for _e, _r, meta in outputs],
            wall_start, f"experiments {' '.join(ids)}", jobs=args.jobs,
        )
    return _report_monitors([(eid, meta) for eid, _r, meta in outputs])


def _cmd_metrics(args) -> int:
    import json

    machine = _machine_for(args)
    machine.run_workload(
        args.workload, duration_s=args.duration,
        clients=args.clients,
    )
    snapshot = machine.hub.snapshot(machine.clock.now)
    if args.json:
        print(json.dumps(snapshot, indent=2, sort_keys=True))
        return 0
    rows = [[name, f"{value:,.0f}"] for name, value in machine.hub.top_counters(args.top)]
    print(
        format_table(
            ["counter", "value"],
            rows,
            title=f"top counters: {args.workload} on {args.organization} "
            f"({args.duration:.0f} simulated seconds)",
        )
    )
    dev_rows = [
        [
            name,
            human_bytes(dev["bytes_read"]),
            human_bytes(dev["bytes_written"]),
            dev["erases"],
            f"{dev['energy_joules']:.3f}",
        ]
        for name, dev in snapshot["devices"].items()
    ]
    print()
    print(format_table(["device", "read", "written", "erases", "active_J"],
                       dev_rows, title="devices"))
    return 0


def _cmd_trace_smoke(args) -> int:
    import json

    from repro.obs import TraceReader, flatten_numeric
    from repro.obs.analyze import TraceAnalysis, diff_summaries

    os.makedirs(args.dir, exist_ok=True)
    jsonl = os.path.join(args.dir, "trace_smoke.jsonl")
    chrome = jsonl + ".chrome.json"
    wall_start = time.perf_counter()
    config = SystemConfig(organization=Organization.SOLID_STATE, seed=args.seed)

    def smoke() -> MobileComputer:
        # A tiny traced experiment exercises the full driver path
        # (machines built internally pick the tracer up)...
        ALL_EXPERIMENTS["E3"](quick=True)
        # ...and one direct run supplies the machine for the
        # hub-vs-device accounting identity check.
        machine = MobileComputer(config)
        machine.run_workload("office", duration_s=20.0)
        return machine

    # Small capacity keeps the smoke's output bounded; the ring counts
    # anything it drops, so truncation is visible in the manifest.
    # Every stock online monitor rides along; any violation fails CI.
    machine, meta = _observed(smoke, trace=True, monitors=True, capacity=1 << 16)
    _finish_observed(jsonl, [meta], wall_start, "trace-smoke", seed=args.seed,
                     config=config, sim_seconds=machine.clock.now)
    monitors = meta["monitors"]

    failures: List[str] = []
    # One validating pass over the written trace also feeds the analysis.
    reader = TraceReader(jsonl)
    analysis = TraceAnalysis()
    for event in reader:
        analysis.feed(event)
    failures.extend(reader.errors)
    if reader.valid == 0:
        failures.append("trace produced no events")
    with open(chrome, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not doc.get("traceEvents"):
        failures.append("chrome export has no traceEvents")
    snapshot = machine.hub.snapshot(machine.clock.now)
    hub_bytes = flatten_numeric(snapshot)["devices.flash-data.bytes_written"]
    dev_bytes = machine.flash.stats.bytes_written
    if hub_bytes != dev_bytes:
        failures.append(
            f"hub flash-data bytes_written {hub_bytes} != device counter {dev_bytes}"
        )
    # The hub lists exactly the devices the power model meters, so their
    # energies sum to the power block's total.
    device_joules = sum(d["total_energy_joules"] for d in snapshot["devices"].values())
    power_joules = snapshot["power"]["energy_joules"]
    if abs(device_joules - power_joules) > 1e-9 * abs(power_joules):
        failures.append(
            f"hub devices' energy {device_joules!r} J != power energy {power_joules!r} J"
        )
    try:
        json.dumps(snapshot)
    except (TypeError, ValueError) as exc:
        failures.append(f"hub snapshot not JSON-able: {exc}")
    for violation in monitors["violations"]:
        failures.append(f"monitor violation: {Violation(**violation)}")
    # The analytics layer must digest its own freshly-recorded trace...
    summary = analysis.summary()
    if not summary["components"]:
        failures.append("analyze produced no per-component stats")
    elif all(s["latency"]["p95"] == 0.0 for s in summary["ops"].values()):
        failures.append("analyze saw only zero latencies")
    # Every reported percentile must lie within its observed range.
    latencies = [(f"op {name}", s["latency"]) for name, s in summary["ops"].items()]
    latencies += [(f"component {name}", s) for name, s in summary["components"].items()]
    for where, lat in latencies:
        for key in ("p50", "p95", "p99"):
            if not lat["min"] <= lat[key] <= lat["max"]:
                failures.append(
                    f"analyze {where}: {key} {lat[key]!r} outside "
                    f"[{lat['min']!r}, {lat['max']!r}]"
                )
    # ...and a trace diffed against itself must report no deltas.
    self_diff = diff_summaries(summary, summary, threshold=0.0)
    if self_diff:
        failures.append(f"self trace-diff flagged {len(self_diff)} metric(s)")
    if failures:
        print(f"TRACE SMOKE FAILED ({len(failures)} problems):", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print(
        f"trace smoke ok: {reader.valid} schema-valid events "
        f"({meta['dropped']} dropped by the ring), chrome export parses, "
        f"hub/device flash accounting identical ({int(dev_bytes):,} bytes), "
        f"device energies sum to the power total ({power_joules:.3f} J), "
        f"{len(monitors['monitors'])} monitors clean, analyze percentiles in range, "
        f"self-diff ok"
    )
    return 0


def _cmd_analyze(args) -> int:
    import json

    from repro.obs.analyze import analyze_trace, render_summary

    try:
        summary = analyze_trace(args.trace_file).summary()
    except OSError as exc:
        print(f"analyze: cannot read {args.trace_file}: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"analyze: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
        return 0
    print(render_summary(summary, top_ops=args.top))
    return 0


def _cmd_trace_diff(args) -> int:
    import json

    from repro.obs.analyze import (
        analyze_trace,
        diff_against_trajectory,
        diff_summaries,
        render_diff,
    )

    if args.bench is None and len(args.traces) != 2:
        print(
            "trace-diff: need two traces (baseline current), or one trace "
            "with --bench",
            file=sys.stderr,
        )
        return 2
    if args.bench is not None and len(args.traces) != 1:
        print("trace-diff: --bench takes exactly one trace", file=sys.stderr)
        return 2
    try:
        if args.bench is not None:
            with open(args.bench, encoding="utf-8") as fh:
                record = json.load(fh)
            current = analyze_trace(args.traces[0]).summary()
            rows = diff_against_trajectory(current, record, threshold=args.threshold)
            label = f"{args.traces[0]} vs {args.bench}"
        else:
            baseline = analyze_trace(args.traces[0]).summary()
            current = analyze_trace(args.traces[1]).summary()
            rows = diff_summaries(baseline, current, threshold=args.threshold)
            label = f"{args.traces[0]} vs {args.traces[1]}"
    except (OSError, ValueError) as exc:
        print(f"trace-diff: {exc}", file=sys.stderr)
        return 2
    print(f"trace-diff: {label} (threshold {args.threshold:.0%})")
    print(render_diff(rows))
    if args.check and rows:
        print(
            f"TRACE-DIFF FAILED: {len(rows)} metric(s) beyond "
            f"{args.threshold:.0%}",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_torture(args) -> int:
    from repro.faults.torture import (
        TortureConfig,
        run_bit_flip_campaign,
        run_program_failure_campaign,
        run_torture,
    )

    if args.quick:
        ops, cut_every, max_cuts, rounds = 150, 19, 12, 2
    else:
        ops, cut_every, max_cuts, rounds = 400, args.every, args.cuts, 4
    cfg = TortureConfig(
        mode=args.mode, ops=ops, seed=args.seed, cut_every=cut_every, max_cuts=max_cuts
    )
    try:
        cfg.validate()
    except ValueError as exc:
        print(f"torture: {exc}", file=sys.stderr)
        return 2
    reports = [run_torture(cfg)]
    if args.mode == "flashstore":
        # Medium-corruption campaigns only make sense at the block layer,
        # where ECC and retirement live.
        reports.append(run_bit_flip_campaign(cfg, rounds=rounds))
        reports.append(run_program_failure_campaign(cfg, rounds=rounds))
    failures = 0
    for report in reports:
        print(report.render())
        print()
        failures += len(report.violations)
    if failures:
        print(f"TORTURE FAILED: {failures} invariant violations", file=sys.stderr)
        return 1
    print("torture passed: every run recovered with invariants intact")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'OS Implications of Solid-State Mobile "
        "Computers' (HotOS 1993)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("devices", help="print the 1993 device catalog")
    sub.add_parser("trends", help="print technology-trend tables")
    sub.add_parser("workloads", help="list synthetic workloads")

    def add_machine_args(p):
        p.add_argument("--organization", default="solid_state",
                       choices=[o.value for o in Organization])
        p.add_argument("--workload", default="office", choices=sorted(WORKLOADS))
        p.add_argument("--duration", type=float, default=120.0,
                       help="simulated seconds (default 120)")
        p.add_argument("--dram-mb", type=float, default=4.0)
        p.add_argument("--flash-mb", type=float, default=16.0)
        p.add_argument("--disk-mb", type=float, default=40.0)
        p.add_argument("--buffer-kb", type=float, default=1024.0)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--clients", type=_client_count, default=1,
                       help="concurrent client streams (default 1)")

    def add_obs_args(p):
        p.add_argument(
            "--trace", metavar="PATH", default=None,
            help="trace the run: canonical JSONL events to PATH, Chrome trace "
            "to PATH.chrome.json, manifest to PATH.manifest.json; composes "
            "with experiments -j N via a deterministic merge",
        )
        p.add_argument(
            "--monitors", action="store_true",
            help="attach every stock online invariant monitor to the live "
            "stream; any violation makes the command exit non-zero",
        )

    run_p = sub.add_parser("run", help="run one workload on one organization")
    add_machine_args(run_p)
    add_obs_args(run_p)

    cmp_p = sub.add_parser("compare", help="run one workload on all organizations")
    add_machine_args(cmp_p)
    add_obs_args(cmp_p)

    exps_p = sub.add_parser(
        "experiments",
        help="run experiment drivers, optionally parallel (-j) and profiled",
    )
    exps_p.add_argument("id", nargs="*",
                        help="experiment ids (default: all of E1..E13/X1..X2)")
    exps_p.add_argument("--all", action="store_true", help="run every experiment")
    exps_p.add_argument("-j", "--jobs", type=int, default=1,
                        help="fan experiments across N worker processes")
    exps_p.add_argument("--full", action="store_true",
                        help="paper-length durations instead of quick mode")
    exps_p.add_argument("--profile", action="store_true",
                        help="run each driver under cProfile and dump pstats")
    exps_p.add_argument("--profile-dir",
                        default=os.path.join("benchmarks", "out", "profiles"),
                        help="where --profile writes <ID>.pstats/<ID>.txt")
    add_obs_args(exps_p)

    met_p = sub.add_parser(
        "metrics", help="run a workload and print the merged MetricsHub snapshot"
    )
    add_machine_args(met_p)
    met_p.add_argument("--json", action="store_true",
                       help="print the full snapshot tree as JSON")
    met_p.add_argument("--top", type=int, default=20,
                       help="rows in the top-counter table (default 20)")
    add_obs_args(met_p)

    ana_p = sub.add_parser(
        "analyze",
        help="streaming analytics over a recorded .jsonl trace",
    )
    ana_p.add_argument("trace_file", help="JSONL trace file (from --trace)")
    ana_p.add_argument("--json", action="store_true",
                       help="print the full summary tree as JSON")
    ana_p.add_argument("--top", type=int, default=20,
                       help="rows in the busiest-ops table (default 20)")

    diff_p = sub.add_parser(
        "trace-diff",
        help="flag metric deltas between two traces, or a trace and a "
        "record's hub counters",
    )
    diff_p.add_argument("traces", nargs="+",
                        help="baseline and current trace files (one file "
                        "with --bench)")
    diff_p.add_argument("--bench", metavar="PATH", default=None,
                        help="compare against the hub block of a JSON "
                        "record (e.g. benchmarks/work_counts.json)")
    diff_p.add_argument("--threshold", type=float, default=0.10,
                        help="relative delta that flags a metric "
                        "(default 0.10)")
    diff_p.add_argument("--check", action="store_true",
                        help="exit non-zero when any metric is flagged")

    smoke_p = sub.add_parser(
        "trace-smoke",
        help="tiny traced run validating trace schema, Chrome export, and "
        "hub/device accounting identity",
    )
    smoke_p.add_argument("--dir", default=os.path.join("benchmarks", "out"),
                         help="output directory (default benchmarks/out)")
    smoke_p.add_argument("--seed", type=int, default=0)

    tort_p = sub.add_parser("torture", help="crash-consistency torture harness")
    tort_p.add_argument("--mode", default="flashstore", choices=["flashstore", "fsck"],
                        help="torture the raw block store or a full FS over the FTL")
    tort_p.add_argument("--seed", type=int, default=0)
    tort_p.add_argument("--every", type=int, default=2,
                        help="cut power at every Nth device operation (default 2)")
    tort_p.add_argument("--cuts", type=int, default=None,
                        help="cap the number of power-cut points (default: all)")
    tort_p.add_argument("--quick", action="store_true",
                        help="small sweep for CI smoke (a few seconds)")
    add_obs_args(tort_p)
    return parser


_COMMANDS = {
    "devices": _cmd_devices,
    "trends": _cmd_trends,
    "workloads": _cmd_workloads,
    "run": _cmd_run,
    "compare": _cmd_compare,
    "experiments": _cmd_experiments,
    "torture": _cmd_torture,
    "metrics": _cmd_metrics,
    "analyze": _cmd_analyze,
    "trace-diff": _cmd_trace_diff,
    "trace-smoke": _cmd_trace_smoke,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    command = _COMMANDS[args.command]
    trace = getattr(args, "trace", None)
    monitors = getattr(args, "monitors", False)
    if args.command == "experiments" or not (trace or monitors):
        return command(args)
    # run / compare / metrics / torture: one in-process job.
    wall_start = time.perf_counter()
    rc, meta = _observed(lambda: command(args), trace is not None, monitors)
    if trace is not None:
        _finish_observed(
            trace, [meta], wall_start,
            " ".join(argv if argv is not None else sys.argv[1:]),
            seed=getattr(args, "seed", None),
        )
    violations = _report_monitors([(args.command, meta)])
    return rc or violations


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
