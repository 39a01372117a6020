"""Three-organization trace-replay benchmark for the simulator.

Run from the repository root::

    python3 replaybench/run.py --workload office-disk --seed 1 --seconds 30 --trace 0

Each workload replays one generated trace profile end to end through
:class:`repro.core.hierarchy.MobileComputer` on one storage organization,
closed loop (the host replays as fast as it can; simulated timestamps
drive the engine's timers), one process, one client, one thread.  The
trace is generated from ``--seed``; the program receives only the trace.

The benchmark repeats a fixed number of rounds of replays, sized from
``--seconds``, each replay on a freshly generated trace and freshly built
machine:

- ``plain``: tracer off.  Gives ``replay_ops_per_s``, ``setup_s`` and
  ``peak_rss_mb``.
- ``obs``: the program's own ``repro.obs`` Tracer with all four stock
  online monitors attached, as ``--trace --monitors`` runs it.  Gives
  ``traced_replay_ops_per_s``; any monitor violation fails the run.
- ``spans`` (``--trace 1`` only): the layer entry points in
  :mod:`layers` are wrapped, giving per-layer host self time and call
  counts, checked against the program's own counters.

Host times of ``plain`` and ``obs`` replays and of set-ups are scaled to
a reference host speed with the calibration loop in :mod:`hostspeed`,
run between every chunk of records and around every set-up.

After every replay the file system is read back and compared with a
shadow model built from the trace (:mod:`shadow`), and the MetricsHub
snapshot digest must equal that of every other replay of the same trace,
in any mode, and that of earlier runs of the same code and seed.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import hostspeed

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
SRC_DIR = os.path.join(REPO_ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")

MB = 1 << 20
#: Calibration rounds run before and after each set-up.
SETUP_CALIBRATIONS = 3
#: Fewest rounds a run plans, however small ``--seconds``.
MIN_ROUNDS = 3
#: A run stops after the round that ends past this multiple of
#: ``--seconds``, so that a slow host cannot stretch it without limit.
DEADLINE_FACTOR = 1.2
#: Tolerated |sum of span self times - replay wall| / replay wall.
CLOSURE_TOLERANCE = 0.01
#: Records replayed between two calibration rounds (tens of milliseconds
#: of work, so the calibration follows the host's speed swings).
CHUNK_RECORDS = 256


@dataclass(frozen=True)
class Workload:
    """One trace profile on one organization."""

    profile: str
    organization: str
    duration_s: float
    #: Nominal host seconds of one replay with its set-up and read-back,
    #: which sizes the number of rounds.  A constant, so that both sides
    #: of a comparison take the same number of samples.
    replay_s: float
    flash_bytes: int = 16 * MB
    #: Layers this workload bypasses: their call count must be exactly 0.
    idle_layers: Tuple[str, ...] = ()
    #: Whether the flash cleaner must copy live data (None: no flash log).
    cleaner_copies: Optional[bool] = None

    def rounds(self, seconds: float, modes: int) -> int:
        return max(MIN_ROUNDS, int(seconds / (self.replay_s * modes)))


#: Each layer does most of its work in one workload and little or none in
#: another, so a change to one layer has a workload that shows it and one
#: that must not move (see README.md).
WORKLOADS: Dict[str, Workload] = {
    # Read-heavy block FS + buffer cache on a magnetic disk.
    "office-disk": Workload(
        "office", "disk", 600.0, replay_s=2.1,
        idle_layers=("fs.memfs", "storage.manager", "storage.writebuffer",
                     "storage.flashstore", "devices.flash"),
    ),
    # Memory-resident FS, DRAM write buffer, append-only flash log.
    "office-solid": Workload(
        "office", "solid_state", 1200.0, replay_s=1.8,
        idle_layers=("fs.diskfs", "fs.cache", "fs.blockdev", "devices.disk"),
        cleaner_copies=False,
    ),
    # Write/sync-heavy block FS on a log-structured FTL with the cleaner
    # copying live data (12 MB of flash; 6-8 MB runs out of space).
    "database-ftl": Workload(
        "database", "flash_disk", 600.0, replay_s=2.2, flash_bytes=12 * MB,
        idle_layers=("fs.memfs", "storage.manager", "storage.writebuffer",
                     "devices.disk"),
        cleaner_copies=True,
    ),
}

#: FS operations the file systems count as ``<op>_ops``.
FS_COUNTED_OPS = ("create", "mkdir", "delete", "rename", "write", "read",
                  "truncate", "sync")


# ----------------------------------------------------------------------
# Results of one replay.
# ----------------------------------------------------------------------


@dataclass
class Setup:
    """One trace generation and machine build, timed."""

    trace: list
    machine: object
    #: Seconds, on the reference host, to generate the trace and build
    #: the machine, and to generate the trace alone.
    setup_s: float
    gen_s: float


@dataclass
class Rep:
    records: int
    #: The replay's set-up and its trace generation, on the reference host.
    setup_s: float
    gen_s: float
    #: Host seconds of the replay, calibration rounds excluded.
    wall_s: float = 0.0
    #: Seconds and count of the calibration rounds run during the replay
    #: (none in ``spans`` replays, whose spans must close on the wall).
    calibration_s: float = 0.0
    calibrations: int = 0
    failed: int = 0
    gc_bytes_copied: float = 0.0
    hub_sha256: Optional[str] = None
    trace_ok: bool = True
    violations: int = 0
    recorder: object = None
    report: object = None
    machine: object = None
    checks: List[Tuple[str, float, float]] = field(default_factory=list)

    @property
    def ops_per_s(self) -> float:
        return self.records / self.wall_s

    @property
    def ref_ops_per_s(self) -> float:
        """Records per second on the reference host."""
        return self.records / hostspeed.to_reference(
            self.wall_s, self.calibration_s, self.calibrations)


def _counter(registry, name: str) -> float:
    """Read a counter without creating it (creation would change the
    MetricsHub snapshot the fingerprint digests)."""
    counter = registry.counters.get(name)
    return counter.value if counter is not None else 0.0


def _device_ops(devices) -> int:
    return sum(d.stats.reads + d.stats.writes + d.stats.erases
               for d in devices if d is not None)


def program_counts(machine) -> Dict[str, float]:
    """The program's own counters the coverage cross-check compares with."""
    counts: Dict[str, float] = {}
    fs_stats = machine.fs.stats
    for op in FS_COUNTED_OPS:
        counts[f"fs.{op}_ops"] = _counter(fs_stats, f"{op}_ops")
    counts["fs.bytes_written"] = _counter(fs_stats, "bytes_written")
    counts["fs.blocks_trimmed"] = _counter(fs_stats, "blocks_trimmed")
    if machine.cache is not None:
        for name in ("hits", "misses", "writes", "dirty_evictions", "sync_writebacks"):
            counts[f"cache.{name}"] = _counter(machine.cache.stats, name)
    if machine.manager is not None:
        counts["manager.user_bytes_written"] = _counter(
            machine.manager.stats, "user_bytes_written")
        for name in ("puts", "bytes_in"):
            counts[f"writebuffer.{name}"] = _counter(machine.manager.buffer.stats, name)
    if machine.store is not None:
        counts["flashstore.user_bytes_written"] = _counter(
            machine.store.stats, "user_bytes_written")
    counts["devices.dram"] = _device_ops([machine.dram])
    counts["devices.flash"] = _device_ops([machine.flash, machine.program_flash])
    counts["devices.disk"] = _device_ops([machine.disk])
    return counts


def coverage_checks(rec, machine, before, after) -> List[Tuple[str, float, float]]:
    """(what, count from spans, count from the program) pairs that must
    agree if every entry point into each layer is wrapped."""

    def delta(key: str) -> float:
        return after[key] - before[key]

    fs_layer = "fs.diskfs" if machine.cache is not None else "fs.memfs"
    checks = [
        (f"{fs_layer}.{op} calls = {op}_ops", rec.method_invocations(fs_layer, op),
         delta(f"fs.{op}_ops"))
        for op in FS_COUNTED_OPS
    ]
    checks.append((f"{fs_layer}.write bytes = bytes_written",
                   rec.method_bytes(fs_layer, "write"), delta("fs.bytes_written")))
    if machine.cache is not None:
        checks += [
            ("fs.cache.read calls = hits + misses",
             rec.method_invocations("fs.cache", "read"),
             delta("cache.hits") + delta("cache.misses")),
            ("fs.cache.write calls = writes",
             rec.method_invocations("fs.cache", "write"), delta("cache.writes")),
            ("fs.blockdev.read_block calls = cache misses",
             rec.method_invocations("fs.blockdev", "read_block"), delta("cache.misses")),
            ("fs.blockdev.write_block calls = dirty evictions + sync writebacks",
             rec.method_invocations("fs.blockdev", "write_block"),
             delta("cache.dirty_evictions") + delta("cache.sync_writebacks")),
            ("fs.blockdev.trim calls = blocks_trimmed",
             rec.method_invocations("fs.blockdev", "trim"), delta("fs.blocks_trimmed")),
        ]
    if machine.manager is not None:
        checks += [
            ("storage.manager.write_block bytes = user_bytes_written",
             rec.method_bytes("storage.manager", "write_block"),
             delta("manager.user_bytes_written")),
            ("storage.writebuffer.put calls = puts",
             rec.method_invocations("storage.writebuffer", "put"),
             delta("writebuffer.puts")),
            ("storage.writebuffer.put bytes = bytes_in",
             rec.method_bytes("storage.writebuffer", "put"),
             delta("writebuffer.bytes_in")),
        ]
    if machine.store is not None:
        checks.append(
            ("storage.flashstore.write_block bytes = user_bytes_written",
             rec.method_bytes("storage.flashstore", "write_block"),
             delta("flashstore.user_bytes_written")))
    for layer in ("devices.dram", "devices.flash", "devices.disk"):
        checks.append((f"{layer} calls = reads + writes + erases",
                       rec.layer_calls(layer), delta(layer)))
    return checks


# ----------------------------------------------------------------------
# Digests.
# ----------------------------------------------------------------------


def trace_sha256(trace) -> str:
    rows = [[r.time, r.op.value, r.path, r.offset, r.nbytes, r.new_path, r.program]
            for r in trace]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def hub_sha256(machine) -> str:
    snapshot = machine.hub.snapshot(machine.clock.now)
    return hashlib.sha256(json.dumps(snapshot, sort_keys=True).encode()).hexdigest()


def code_sha256() -> str:
    """Digest of the simulator and benchmark sources: fingerprints are
    only comparable between runs of the same code."""
    digest = hashlib.sha256()
    for base in (os.path.join(SRC_DIR, "repro"), BENCH_DIR):
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = sorted(d for d in dirnames if d not in ("out", "__pycache__"))
            for name in sorted(filenames):
                if name.endswith(".py"):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, REPO_ROOT).encode() + b"\0")
                    with open(path, "rb") as fh:
                        digest.update(fh.read())
    return digest.hexdigest()


def check_fingerprint(workload: str, seed: int, fingerprint: dict) -> List[str]:
    """Compare with (and extend) the fingerprint stored by earlier runs of
    the same code and seed; returns the keys that differ."""
    directory = os.path.join(OUT_DIR, "fingerprints", code_sha256()[:16])
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{workload}-seed{seed}.json")
    stored: dict = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            stored = json.load(fh)
    differ = [k for k in fingerprint if k in stored and stored[k] != fingerprint[k]]
    stored.update({k: v for k, v in fingerprint.items() if k not in stored})
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(stored, fh, indent=1, sort_keys=True)
    os.replace(tmp, path)
    return differ


# ----------------------------------------------------------------------
# One replay.
# ----------------------------------------------------------------------


class Bench:
    """Generates, builds, replays and verifies one workload and seed."""

    def __init__(self, name: str, seed: int) -> None:
        from repro.core.config import Organization, SystemConfig

        self.name = name
        self.seed = seed
        self.workload = WORKLOADS[name]
        self.config = SystemConfig(
            organization=Organization(self.workload.organization),
            flash_bytes=self.workload.flash_bytes,
        )
        self.first_trace = None
        self.shadow = None
        self.peak_rss_mb: Optional[float] = None

    def setup(self) -> Setup:
        """Generate the trace and build the machine, between calibrations."""
        from repro.core.hierarchy import MobileComputer
        from repro.trace.workloads import generate_workload

        w = self.workload
        calibration_s = hostspeed.calibrate(SETUP_CALIBRATIONS)
        start = time.perf_counter()
        trace = generate_workload(w.profile, seed=self.seed, duration_s=w.duration_s)
        generated = time.perf_counter()
        machine = MobileComputer(self.config)
        end = time.perf_counter()
        calibration_s += hostspeed.calibrate(SETUP_CALIBRATIONS)

        def ref(seconds: float) -> float:
            return hostspeed.to_reference(seconds, calibration_s, 2 * SETUP_CALIBRATIONS)

        return Setup(trace, machine, ref(end - start), ref(generated - start))

    def rep(self, mode: str) -> Rep:
        if mode == "plain":
            return self._replay()
        if mode == "obs":
            return self._obs_rep()
        return self._spans_rep()

    def _obs_rep(self) -> Rep:
        from repro.obs import Tracer, runtime
        from repro.obs.monitor import MonitorSet, build_monitors

        tracer = Tracer()
        monitors = MonitorSet(build_monitors())
        monitors.attach(tracer)
        previous = runtime.set_tracer(tracer)
        try:
            rep = self._replay()
        finally:
            runtime.set_tracer(previous)
            monitors.detach()
            monitors.finish()
        rep.violations = monitors.violation_count
        if rep.violations:
            print(monitors.render())
        return rep

    def _spans_rep(self) -> Rep:
        from layers import SpanRecorder

        recorder = SpanRecorder()
        with recorder.installed():
            return self._replay(recorder)

    def _replay(self, recorder=None) -> Rep:
        from shadow import ShadowFS, read_back

        # Machines hold reference cycles: free the previous one before
        # building, so peak memory never holds two.
        gc.collect()
        setup = self.setup()
        trace, machine = setup.trace, setup.machine
        if self.first_trace is None:
            self.first_trace = trace
        rep = Rep(len(trace), setup.setup_s, setup.gen_s, machine=machine,
                  trace_ok=trace == self.first_trace, recorder=recorder)
        del setup
        before = program_counts(machine) if recorder is not None else None
        calibrations: List[float] = []
        stream = trace if recorder is not None else calibrated_stream(trace, calibrations)
        gc.collect()
        try:
            start = time.perf_counter()
            if recorder is None:
                rep.report = machine.run_streams([stream])
            else:
                with recorder.root():
                    rep.report = machine.run_streams([stream])
            end = time.perf_counter()
        except Exception:  # the run reports the failure instead of dying
            traceback.print_exc()
            rep.failed = len(trace)
            return rep
        if self.peak_rss_mb is None:
            # The first replay of a run is a plain one: its peak is read
            # before the shadow model and the read-back add their copies
            # of the file data.
            self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        rep.calibration_s = sum(calibrations)
        rep.calibrations = len(calibrations)
        rep.wall_s = end - start - rep.calibration_s
        rep.failed = rep.report.errors
        if machine.store is not None:
            rep.gc_bytes_copied = _counter(machine.store.stats, "gc_bytes_copied")
        rep.hub_sha256 = hub_sha256(machine)
        if recorder is not None:
            rep.checks = coverage_checks(recorder, machine, before,
                                         program_counts(machine))
        if self.shadow is None:
            self.shadow = ShadowFS.from_trace(self.first_trace)
        wrong = read_back(machine.fs, self.shadow)
        if wrong:
            print(f"read-back: {len(wrong)} path(s) differ from the shadow "
                  f"model, first {wrong[:5]}")
        rep.failed += len(wrong)
        return rep


def calibrated_stream(trace, calibrations: List[float]):
    """Yield the trace's records, running one calibration round before
    every CHUNK_RECORDS-th record and once after the last, and appending
    each round's seconds to ``calibrations``."""
    for index, record in enumerate(trace):
        if index % CHUNK_RECORDS == 0:
            calibrations.append(hostspeed.calibrate())
        yield record
    calibrations.append(hostspeed.calibrate())


# ----------------------------------------------------------------------
# Metrics.
# ----------------------------------------------------------------------


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def ref_rate(reps: List[Rep]) -> float:
    """Median records per second on the reference host over ``reps``."""
    return _median([r.ref_ops_per_s for r in reps if r.wall_s])


def host_rate(reps: List[Rep]) -> float:
    """Median records per host second over ``reps``."""
    return _median([r.ops_per_s for r in reps if r.wall_s])


def end_to_end_metrics(reps, setup_samples, peak_rss_mb) -> dict:
    return {
        "replay_ops_per_s": (ref_rate(reps["plain"]), "1/s"),
        "traced_replay_ops_per_s": (ref_rate(reps["obs"]), "1/s"),
        "setup_s": (_median(setup_samples), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def per_layer_metrics(reps, gen_samples, attempted, failed) -> dict:
    from layers import ROOT

    spans = [r for r in reps["spans"] if r.wall_s]
    metrics = {
        "trace.synth.gen_s": (_median(gen_samples), "s"),
        "bench.replays": (len(reps["plain"]), "count"),
        "bench.failed_op_frac": (failed / attempted, "ratio"),
        # Spans replays run without calibration rounds (their spans must
        # close on the wall), so this compares host rates of one run.
        "bench.span_overhead_frac": (
            1.0 - host_rate(spans) / host_rate(reps["plain"]), "ratio"),
        "obs.tracer_cost_frac": (
            1.0 - ref_rate(reps["obs"]) / ref_rate(reps["plain"]), "ratio"),
    }
    first = spans[0]
    for layer in first.recorder.layers:
        metrics[f"{layer}.self_us_per_op"] = (
            _median([r.recorder.layer_self_s(layer) / r.records * 1e6 for r in spans]),
            "us/op")
        if layer != ROOT:
            metrics[f"{layer}.calls_per_op"] = (
                first.recorder.layer_calls(layer) / first.records, "calls/op")
    machine, report = first.machine, first.report
    metrics["sim.engine.timer_fires"] = (machine.engine.events_run, "count")
    metrics["fs.cache.hit_ratio"] = (
        machine.cache.hit_ratio() if machine.cache is not None else 0.0, "ratio")
    metrics["storage.writebuffer.absorption_ratio"] = (
        machine.manager.buffer.absorption_ratio() if machine.manager is not None else 0.0,
        "ratio")
    store = machine.store
    metrics["storage.flashstore.gc_bytes_copied"] = (
        _counter(store.stats, "gc_bytes_copied") if store is not None else 0.0, "B")
    metrics["storage.flashstore.forced_cleanings"] = (
        store.cleaning_stats.forced_cleanings if store is not None else 0, "count")
    metrics["storage.flashstore.write_amplification"] = (
        store.write_amplification() if store is not None else 0.0, "ratio")
    for op in ("read", "write"):
        latency = report.op_latency.get(op, {})
        for pct in ("p50", "p99"):
            metrics[f"fs.sim_{op}_ms_{pct}"] = (latency.get(pct, 0.0) * 1e3, "ms")
    for name, device in (("dram", machine.dram), ("flash", machine.flash),
                         ("disk", machine.disk)):
        busy = device.stats.busy_time if device is not None else 0.0
        wait = device.stats.wait_time if device is not None else 0.0
        metrics[f"devices.{name}.sim_busy_s"] = (busy, "s")
        metrics[f"devices.{name}.sim_wait_s"] = (wait, "s")
    return metrics


# ----------------------------------------------------------------------
# Entry point.
# ----------------------------------------------------------------------


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure(bench: Bench, modes: List[str], seconds: float):
    """Replay a fixed number of rounds of ``modes``, sized from ``seconds``
    (fewer only if the run passes its deadline).

    Returns (replays by mode, set-up samples, trace-generation samples),
    the samples in reference-host seconds.
    """
    setup_samples: List[float] = []
    gen_samples: List[float] = []
    reps: Dict[str, List[Rep]] = {mode: [] for mode in modes}
    rounds = bench.workload.rounds(seconds, len(modes))
    deadline = time.perf_counter() + DEADLINE_FACTOR * seconds
    for done in range(1, rounds + 1):
        # One stand-alone set-up per round; the plain replay adds another.
        gc.collect()
        setup_samples.append(bench.setup().setup_s)
        for mode in modes:
            rep = bench.rep(mode)
            reps[mode].append(rep)
            if mode == "plain":
                setup_samples.append(rep.setup_s)
                gen_samples.append(rep.gen_s)
            if rep.wall_s:
                rate = f"{rep.ops_per_s:,.0f} ops/s"
                if rep.calibrations:
                    rate += f" ({rep.ref_ops_per_s:,.0f} on the reference host)"
            else:
                rate = "FAILED"
            print(f"  {mode:5s} rep {len(reps[mode])}: {rep.records} records, "
                  f"{rep.wall_s:.3f} s, {rate}, setup {rep.setup_s:.3f} s")
            # Only the first spans replay's machine feeds the metrics.
            if mode != "spans" or len(reps[mode]) > 1:
                rep.machine = rep.report = None
        if done < rounds and time.perf_counter() > deadline:
            print(f"stopped after {done} of {rounds} rounds: past "
                  f"{DEADLINE_FACTOR:g} x {seconds:g} s")
            break
    return reps, setup_samples, gen_samples


def verify(bench: Bench, reps: Dict[str, List[Rep]]) -> Tuple[List[str], dict]:
    """Every correctness check of a run; returns (problems, fingerprint)."""
    from layers import ROOT

    w = bench.workload
    all_reps = [r for mode_reps in reps.values() for r in mode_reps]
    problems: List[str] = []
    failed = sum(r.failed for r in all_reps)
    if failed:
        problems.append(f"{failed} of {sum(r.records for r in all_reps)} ops failed")
    violations = sum(r.violations for r in all_reps)
    if violations:
        problems.append(f"{violations} online monitor violation(s)")
    if not all(r.trace_ok for r in all_reps):
        problems.append("trace generation is not deterministic")
    if w.cleaner_copies is not None:
        copied = reps["plain"][0].gc_bytes_copied
        if (copied > 0) != w.cleaner_copies:
            problems.append(f"flash cleaner copied {copied:g} bytes, expected "
                            f"{'some' if w.cleaner_copies else 'none'}")
    digests = {r.hub_sha256 for r in all_reps}
    if len(digests) != 1:
        problems.append(f"MetricsHub snapshot differs between replays: {len(digests)} digests")

    fingerprint = {"trace_sha256": trace_sha256(bench.first_trace),
                   "hub_sha256": reps["plain"][0].hub_sha256}
    spans = reps.get("spans")
    if spans:
        first = spans[0].recorder
        calls = {layer: first.layer_calls(layer) for layer in first.layers if layer != ROOT}
        if any({l: r.recorder.layer_calls(l) for l in calls} != calls for r in spans):
            problems.append("per-layer call counts differ between replays")
        fingerprint["calls"] = calls
        for layer in w.idle_layers:
            if calls[layer]:
                problems.append(f"{layer} should be bypassed but saw {calls[layer]} calls")
        for rep in spans:
            for what, from_spans, from_program in rep.checks:
                if from_spans != from_program:
                    problems.append(f"coverage: {what}: spans {from_spans:g} "
                                    f"!= program {from_program:g}")
            error = rep.recorder.closure_error(rep.wall_s) if rep.wall_s else 0.0
            if error > CLOSURE_TOLERANCE:
                problems.append(f"span closure off by {error:.2%}")
        print(f"coverage cross-check: {len(spans[0].checks)} identities x "
              f"{len(spans)} replays; span closure within {CLOSURE_TOLERANCE:.0%}")
        _print_layer_table(spans)
    stale = check_fingerprint(bench.name, bench.seed, fingerprint)
    if stale:
        problems.append(f"fingerprint differs from an earlier run of this code: {stale}")
    return problems, fingerprint


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC_DIR, "repro")):
        print(f"replaybench: simulator sources not found under {SRC_DIR}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC_DIR)

    bench = Bench(args.workload, args.seed)
    w = bench.workload
    modes = ["plain", "obs"] + (["spans"] if args.trace else [])
    print(f"workload {args.workload}: {w.profile} on {w.organization}, "
          f"{w.duration_s:.0f} simulated s, seed {args.seed}, "
          f"{w.rounds(args.seconds, len(modes))} rounds of {', '.join(modes)}")
    reps, setup_samples, gen_samples = measure(bench, modes, args.seconds)
    problems, fingerprint = verify(bench, reps)
    print("fingerprint " + json.dumps(fingerprint, sort_keys=True))

    all_reps = [r for mode_reps in reps.values() for r in mode_reps]
    attempted = sum(r.records for r in all_reps)
    failed = sum(r.failed for r in all_reps)
    if args.trace:
        metrics = per_layer_metrics(reps, gen_samples, attempted, failed)
    else:
        metrics = end_to_end_metrics(reps, setup_samples, bench.peak_rss_mb)
    for problem in problems:
        print(f"FAIL: {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def _print_layer_table(spans) -> None:
    """Median per-layer host self time, its share of the replay, and calls."""
    first = spans[0].recorder
    wall = statistics.median(r.wall_s for r in spans)
    print(f"{'layer':22s} {'self us/op':>11s} {'share':>7s} {'calls/op':>9s}")
    for layer in first.layers:
        self_s = statistics.median(r.recorder.layer_self_s(layer) for r in spans)
        print(f"{layer:22s} {self_s / spans[0].records * 1e6:11.2f} "
              f"{self_s / wall:7.1%} {first.layer_calls(layer) / spans[0].records:9.2f}")


if __name__ == "__main__":
    sys.exit(main())
