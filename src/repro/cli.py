"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``devices``      -- print the 1993 device catalog (E1's raw material).
- ``trends``       -- print the technology-trend tables and crossovers.
- ``workloads``    -- list the available synthetic workloads.
- ``run``          -- run one workload on one organization, print metrics.
- ``compare``      -- run one workload on every organization, side by side.
- ``experiment``   -- run one (or all) of the E1-E13 experiment drivers.
- ``experiments``  -- run many experiment drivers, optionally in
  parallel (``-j N`` fans them across a process pool; every driver is
  independent and seed-deterministic, so the tables are identical to a
  serial run) and optionally under cProfile (``--profile``).
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
  the online monitors (zero violations), and the ``analyze`` /
  ``trace-diff`` tooling (wired into ``make check``).

``run``, ``compare``, ``experiment``, ``experiments``, ``metrics``, and
``torture`` accept ``--trace PATH``: the run executes with a
:class:`~repro.obs.Tracer` attached and writes the event stream as JSONL
to ``PATH``, a Chrome ``trace_event`` file to ``PATH.chrome.json``
(load it in ``chrome://tracing`` or Perfetto), and a run manifest to
``PATH.manifest.json``.  Tracing composes with ``experiments -j N``:
each job traces into its own shard and the shards merge
deterministically (stable sort on ``(t, seq, shard)``), so the merged
trace is byte-identical for any ``-j``.  ``--trace-mode single``
requests the raw single-sink stream in emission order instead; it is
incompatible with ``-j N`` and errors rather than silently serializing.

The same commands accept ``--monitors`` (or repeated ``--monitor NAME``)
to attach online invariant monitors (:mod:`repro.obs.monitor`) to the
live stream; any violation is reported and the command exits non-zero.

Except for ``experiments --profile``, ``--trace``, and ``trace-smoke``
(which write under ``benchmarks/`` or the given path), everything
prints plain ASCII tables.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional, Tuple

from repro.analysis.experiments import ALL_EXPERIMENTS
from repro.analysis.report import format_kv, format_table, human_bytes, human_seconds
from repro.core.config import Organization, SystemConfig
from repro.core.hierarchy import MobileComputer
from repro.devices.catalog import MB, catalog_specs
from repro.trace.workloads import WORKLOADS
from repro.trends.model import SmallConfigCostModel, default_trends_1993


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
        for row in trends.cost_table(1993, 2000)
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
                ("40MB flash/disk parity (mfr assumptions)", f"{small.parity_year(40):.1f}"),
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
    clients = getattr(args, "clients", 1)
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
             f"{metrics.extras.get('dispatch_delay_total_s', 0.0):.2f} s")
        )
        for cid, stats in sorted(report.per_client.items()):
            rows.append(
                (f"client {cid}",
                 f"{stats['records']} ops, {stats['errors']} errors")
            )
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
            clients=getattr(args, "clients", 1),
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


def _cmd_experiment(args) -> int:
    ids = list(ALL_EXPERIMENTS) if args.id == "all" else [args.id.upper()]
    for eid in ids:
        driver = ALL_EXPERIMENTS.get(eid)
        if driver is None:
            print(f"unknown experiment {eid!r}; choose from {', '.join(ALL_EXPERIMENTS)}",
                  file=sys.stderr)
            return 2
        result = driver(quick=not args.full)
        print(result.render())
        print()
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


def _experiment_worker(
    job: Tuple[str, bool, Optional[str], Optional[str], Optional[List[str]]],
) -> Tuple[str, str, Optional[dict]]:
    """Run one experiment job; returns (id, rendered table, obs meta).

    Top-level so a multiprocessing pool can pickle it.  With a shard
    path or monitor names set, the job runs under its *own* tracer
    (installed process-wide for the duration: workers never share a
    tracer across processes), writes its trace shard, and attaches the
    requested online monitors.  The returned meta dict carries event /
    drop counts and the monitor summary; it is None for a plain job.
    """
    eid, full, profile_dir, shard_path, monitor_names = job
    if shard_path is None and monitor_names is None:
        return eid, _run_driver(eid, full, profile_dir), None

    from repro.obs import Tracer, runtime
    from repro.obs.monitor import MonitorSet, build_monitors

    tracer = Tracer()
    monitor_set = None
    if monitor_names is not None:
        monitor_set = MonitorSet(build_monitors(monitor_names))
        monitor_set.attach(tracer)
    previous = runtime.set_tracer(tracer)
    try:
        rendered = _run_driver(eid, full, profile_dir)
    finally:
        runtime.set_tracer(previous)
        if monitor_set is not None:
            monitor_set.detach()
            monitor_set.finish()
    meta: dict = {"events": len(tracer), "dropped": tracer.dropped}
    if shard_path is not None:
        tracer.to_jsonl(shard_path)
    if monitor_set is not None:
        meta["monitors"] = monitor_set.summary()
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
    import time

    wall_start = time.perf_counter()
    profile_dir = args.profile_dir if args.profile else None
    trace = getattr(args, "trace", None)
    monitor_names = _monitor_names(args)
    shard_ctx = None
    shard_paths: List[Optional[str]] = [None] * len(ids)
    if trace is not None:
        # One shard per *job* (not per worker process): shard content
        # and order depend only on the seed-deterministic job and its
        # submission index, so the merged trace is identical for any -j.
        import tempfile

        from repro.obs import shard_filename

        shard_ctx = tempfile.TemporaryDirectory(prefix="repro-trace-shards-")
        base = os.path.join(shard_ctx.name, "trace")
        shard_paths = [shard_filename(base, i) for i in range(len(ids))]
    jobs = [
        (eid, args.full, profile_dir, shard_paths[i], monitor_names)
        for i, eid in enumerate(ids)
    ]
    try:
        if args.jobs > 1 and len(jobs) > 1:
            import multiprocessing

            with multiprocessing.Pool(processes=min(args.jobs, len(jobs))) as pool:
                outputs = pool.map(_experiment_worker, jobs)
        else:
            outputs = [_experiment_worker(job) for job in jobs]
        # Pool.map preserves submission order, so parallel output is
        # byte-identical to the serial run.
        for _eid, rendered, _meta in outputs:
            print(rendered)
            print()
        if trace is not None:
            from repro.obs import (
                jsonl_to_chrome,
                merge_shards_to_jsonl,
                run_manifest,
                write_manifest,
            )

            events = merge_shards_to_jsonl(
                trace, [path for path in shard_paths if path is not None]
            )
            dropped = sum(meta["dropped"] for _e, _r, meta in outputs if meta)
            jsonl_to_chrome(trace, trace + ".chrome.json", dropped=dropped)
            write_manifest(
                trace + ".manifest.json",
                run_manifest(
                    command=f"experiments {' '.join(ids)}",
                    seed=None,
                    wall_seconds=time.perf_counter() - wall_start,
                    extra={
                        "events": events,
                        "dropped": dropped,
                        "shards": len(ids),
                        "jobs": args.jobs,
                    },
                ),
            )
            print(
                f"\ntrace written: {trace} ({events} events from {len(ids)} "
                f"shard(s), {dropped} dropped) + .chrome.json + .manifest.json",
                file=sys.stderr,
            )
    finally:
        if shard_ctx is not None:
            shard_ctx.cleanup()
    if monitor_names is not None:
        return _report_job_monitors(outputs)
    return 0


def _report_job_monitors(outputs: List[Tuple[str, str, Optional[dict]]]) -> int:
    """Aggregate per-job monitor summaries; non-zero on any violation."""
    total = 0
    names: List[str] = []
    for eid, _rendered, meta in outputs:
        summary = (meta or {}).get("monitors")
        if summary is None:
            continue
        names = names or list(summary["monitors"])
        count = summary["violation_count"]
        total += count
        for violation in summary["violations"][:20]:
            print(
                f"  {eid}: [{violation['monitor']}] t={violation['t']:.6f}: "
                f"{violation['message']}",
                file=sys.stderr,
            )
    if total:
        print(f"MONITOR VIOLATIONS: {total} across jobs", file=sys.stderr)
        return 1
    print(
        f"monitors ok: {len(names)} monitor(s) [{', '.join(names)}] "
        f"per job, 0 violations"
    )
    return 0


def _cmd_metrics(args) -> int:
    import json

    machine = _machine_for(args)
    machine.run_workload(
        args.workload, duration_s=args.duration,
        clients=getattr(args, "clients", 1),
    )
    now = machine.clock.now
    if args.json:
        print(json.dumps(machine.hub.snapshot(now), indent=2, sort_keys=True))
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
    dev_rows = []
    for name in machine.hub.devices():
        dev_rows.append(
            [
                name,
                human_bytes(int(machine.hub.device_stat(name, "bytes_read"))),
                human_bytes(int(machine.hub.device_stat(name, "bytes_written"))),
                int(machine.hub.device_stat(name, "erases")),
                f"{machine.hub.device_stat(name, 'energy_joules'):.3f}",
            ]
        )
    print()
    print(format_table(["device", "read", "written", "erases", "active_J"],
                       dev_rows, title="devices"))
    return 0


def _cmd_trace_smoke(args) -> int:
    import json
    import time

    from repro.obs import (
        Tracer,
        jsonl_to_chrome,
        run_manifest,
        runtime,
        validate_jsonl,
        write_manifest,
    )
    from repro.obs.analyze import analyze_trace, diff_summaries
    from repro.obs.monitor import MonitorSet, build_monitors

    os.makedirs(args.dir, exist_ok=True)
    jsonl = os.path.join(args.dir, "trace_smoke.jsonl")
    chrome = jsonl + ".chrome.json"
    wall_start = time.perf_counter()
    # Small capacity keeps the smoke's output bounded; the ring counts
    # anything it drops, so truncation is visible in the manifest.
    tracer = Tracer(capacity=1 << 16)
    # Every stock online monitor rides along; any violation fails CI.
    monitor_set = MonitorSet(build_monitors())
    monitor_set.attach(tracer)
    previous = runtime.set_tracer(tracer)
    try:
        # A tiny traced experiment exercises the full driver path
        # (machines built internally pick the tracer up)...
        ALL_EXPERIMENTS["E3"](quick=True)
        # ...and one direct run supplies the machine for the
        # hub-vs-device accounting identity check.
        config = SystemConfig(organization=Organization.SOLID_STATE, seed=args.seed)
        machine = MobileComputer(config)
        machine.run_workload("office", duration_s=20.0)
    finally:
        runtime.set_tracer(previous)
        monitor_set.detach()
        monitor_set.finish()
    tracer.to_canonical_jsonl(jsonl)
    jsonl_to_chrome(jsonl, chrome, dropped=tracer.dropped)
    write_manifest(
        jsonl + ".manifest.json",
        run_manifest(
            command="trace-smoke",
            config=config,
            seed=args.seed,
            sim_seconds=machine.clock.now,
            wall_seconds=time.perf_counter() - wall_start,
            extra={
                "events": len(tracer),
                "dropped": tracer.dropped,
                "monitors": monitor_set.summary(),
            },
        ),
    )

    failures: List[str] = []
    valid, errors = validate_jsonl(jsonl)
    failures.extend(errors)
    if valid == 0:
        failures.append("trace produced no events")
    with open(chrome, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not doc.get("traceEvents"):
        failures.append("chrome export has no traceEvents")
    hub_bytes = machine.hub.device_stat("flash-data", "bytes_written")
    dev_bytes = machine.flash.stats.bytes_written
    if hub_bytes != dev_bytes:
        failures.append(
            f"hub flash-data bytes_written {hub_bytes} != device counter {dev_bytes}"
        )
    try:
        json.dumps(machine.hub.snapshot(machine.clock.now))
    except (TypeError, ValueError) as exc:
        failures.append(f"hub snapshot not JSON-able: {exc}")
    for violation in monitor_set.violations():
        failures.append(f"monitor violation: {violation}")
    # The analytics layer must digest its own freshly-recorded trace...
    summary = analyze_trace(jsonl).summary()
    if not summary["components"]:
        failures.append("analyze produced no per-component stats")
    elif all(s["latency"]["p95_s"] == 0.0 for s in summary["ops"].values()):
        failures.append("analyze saw only zero latencies")
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
        f"trace smoke ok: {valid} schema-valid events "
        f"({tracer.dropped} dropped by the ring), chrome export parses, "
        f"hub/device flash accounting identical ({int(dev_bytes):,} bytes), "
        f"{len(monitor_set.monitors)} monitors clean, analyze + self-diff ok"
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
        p.add_argument("--clients", type=int, default=1,
                       help="concurrent client streams (default 1)")

    def add_trace_arg(p):
        p.add_argument(
            "--trace", metavar="PATH", default=None,
            help="trace the run: canonical JSONL events to PATH, Chrome trace "
            "to PATH.chrome.json, manifest to PATH.manifest.json; composes "
            "with experiments -j N via deterministic shard merge",
        )
        p.add_argument(
            "--trace-mode", choices=["sharded", "single"], default="sharded",
            help="'sharded' (default) writes the canonical merged stream, "
            "byte-identical for any -j; 'single' writes the raw "
            "emission-order stream and errors with -j N",
        )

    def add_monitor_args(p):
        from repro.obs.monitor import MONITORS

        p.add_argument(
            "--monitors", action="store_true",
            help="attach every stock online invariant monitor to the live "
            "stream; any violation makes the command exit non-zero",
        )
        p.add_argument(
            "--monitor", metavar="NAME", action="append", default=None,
            choices=sorted(MONITORS),
            help=f"attach one monitor by name (repeatable): "
            f"{', '.join(sorted(MONITORS))}",
        )

    run_p = sub.add_parser("run", help="run one workload on one organization")
    add_machine_args(run_p)
    add_trace_arg(run_p)
    add_monitor_args(run_p)

    cmp_p = sub.add_parser("compare", help="run one workload on all organizations")
    add_machine_args(cmp_p)
    add_trace_arg(cmp_p)
    add_monitor_args(cmp_p)

    exp_p = sub.add_parser("experiment", help="run experiment drivers (E1-E13)")
    exp_p.add_argument("id", help="experiment id (E1..E13) or 'all'")
    exp_p.add_argument("--full", action="store_true",
                       help="paper-length durations instead of quick mode")
    add_trace_arg(exp_p)
    add_monitor_args(exp_p)

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
    add_trace_arg(exps_p)
    add_monitor_args(exps_p)

    met_p = sub.add_parser(
        "metrics", help="run a workload and print the merged MetricsHub snapshot"
    )
    add_machine_args(met_p)
    met_p.add_argument("--json", action="store_true",
                       help="print the full snapshot tree as JSON")
    met_p.add_argument("--top", type=int, default=20,
                       help="rows in the top-counter table (default 20)")
    add_trace_arg(met_p)
    add_monitor_args(met_p)

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
    add_trace_arg(tort_p)
    add_monitor_args(tort_p)
    return parser


_COMMANDS = {
    "devices": _cmd_devices,
    "trends": _cmd_trends,
    "workloads": _cmd_workloads,
    "run": _cmd_run,
    "compare": _cmd_compare,
    "experiment": _cmd_experiment,
    "experiments": _cmd_experiments,
    "torture": _cmd_torture,
    "metrics": _cmd_metrics,
    "analyze": _cmd_analyze,
    "trace-diff": _cmd_trace_diff,
    "trace-smoke": _cmd_trace_smoke,
}


def _monitor_names(args) -> Optional[List[str]]:
    """Requested online-monitor names.

    ``--monitor NAME`` (repeatable) selects specific monitors;
    ``--monitors`` selects every stock monitor; None means monitoring
    is off for this invocation.
    """
    explicit = getattr(args, "monitor", None)
    if explicit:
        return list(dict.fromkeys(explicit))
    if getattr(args, "monitors", False):
        from repro.obs.monitor import MONITORS

        return list(MONITORS)
    return None


def _attach_monitors(tracer, monitor_names: Optional[List[str]]):
    if monitor_names is None:
        return None
    from repro.obs.monitor import MonitorSet, build_monitors

    monitor_set = MonitorSet(build_monitors(monitor_names))
    monitor_set.attach(tracer)
    return monitor_set


def _finish_monitors(monitor_set) -> int:
    """Detach + finalize a MonitorSet; non-zero when anything violated."""
    if monitor_set is None:
        return 0
    monitor_set.detach()
    monitor_set.finish()
    if monitor_set.violation_count:
        print(monitor_set.render(), file=sys.stderr)
        return 1
    print(monitor_set.render())
    return 0


def _neutralize_obs_flags(args) -> None:
    """Strip trace/monitor flags before re-dispatching a command whose
    observability is already being handled by the caller (otherwise
    ``experiments`` would shard its own second trace)."""
    if hasattr(args, "trace"):
        args.trace = None
    if hasattr(args, "monitors"):
        args.monitors = False
    if hasattr(args, "monitor"):
        args.monitor = None


def _run_traced(args, argv: Optional[List[str]]) -> int:
    """Execute the command with a process-wide tracer, then sink the
    stream as JSONL + Chrome trace + run manifest next to ``args.trace``.

    The default mode writes the *canonical* ``(t, seq, shard)``-sorted
    stream -- the same format the sharded ``experiments -j N`` merge
    produces -- so any two traces of the same work are byte-comparable.
    ``--trace-mode single`` keeps the raw emission-order sink.
    """
    import time

    from repro.obs import Tracer, jsonl_to_chrome, run_manifest, runtime, write_manifest

    trace = args.trace
    single = getattr(args, "trace_mode", "sharded") == "single"
    monitor_names = _monitor_names(args)
    _neutralize_obs_flags(args)
    tracer = Tracer()
    monitor_set = _attach_monitors(tracer, monitor_names)
    previous = runtime.set_tracer(tracer)
    wall_start = time.perf_counter()
    try:
        rc = _COMMANDS[args.command](args)
    finally:
        runtime.set_tracer(previous)
        if monitor_set is not None:
            monitor_set.detach()
            monitor_set.finish()
    if single:
        tracer.to_jsonl(trace)
        tracer.to_chrome(trace + ".chrome.json")
    else:
        tracer.to_canonical_jsonl(trace)
        jsonl_to_chrome(trace, trace + ".chrome.json", dropped=tracer.dropped)
    extra = {
        "events": len(tracer),
        "dropped": tracer.dropped,
        "trace_mode": "single" if single else "sharded",
    }
    if monitor_set is not None:
        extra["monitors"] = monitor_set.summary()
    write_manifest(
        trace + ".manifest.json",
        run_manifest(
            command=" ".join(argv if argv is not None else sys.argv[1:]),
            seed=getattr(args, "seed", None),
            wall_seconds=time.perf_counter() - wall_start,
            extra=extra,
        ),
    )
    print(
        f"\ntrace written: {trace} ({len(tracer)} events, "
        f"{tracer.dropped} dropped) + .chrome.json + .manifest.json",
        file=sys.stderr,
    )
    if monitor_set is not None:
        if monitor_set.violation_count:
            print(monitor_set.render(), file=sys.stderr)
            return rc or 1
        print(monitor_set.render())
    return rc


def _run_monitored(args) -> int:
    """``--monitors`` without ``--trace``: feed the live stream through
    the monitors via a small throwaway ring (observers see every event
    regardless of ring size); nothing is written to disk."""
    from repro.obs import Tracer, runtime

    monitor_names = _monitor_names(args)
    _neutralize_obs_flags(args)
    tracer = Tracer(capacity=1024)
    monitor_set = _attach_monitors(tracer, monitor_names)
    previous = runtime.set_tracer(tracer)
    try:
        rc = _COMMANDS[args.command](args)
    finally:
        runtime.set_tracer(previous)
    return rc or _finish_monitors(monitor_set)


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    trace = getattr(args, "trace", None)
    single = getattr(args, "trace_mode", "sharded") == "single"
    if trace and single and getattr(args, "jobs", 1) > 1:
        # Satellite of the sharded-merge work: the old single-sink path
        # cannot compose with a worker pool, so it errors instead of
        # silently forcing -j 1 as earlier versions did.
        print(
            "--trace-mode single cannot record across -j "
            f"{args.jobs} worker processes; drop --trace-mode single "
            "(the default sharded mode merges deterministically) or use -j 1",
            file=sys.stderr,
        )
        return 2
    if args.command == "experiments" and not (trace and single):
        # experiments handles sharded tracing + per-job monitors itself.
        return _COMMANDS[args.command](args)
    if trace:
        return _run_traced(args, argv)
    if _monitor_names(args) is not None:
        return _run_monitored(args)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
