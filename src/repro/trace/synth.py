"""Synthetic trace generation.

The generator reproduces the statistical structure reported by the trace
studies the paper cites, which is what the storage-manager claims depend
on:

- **File sizes are small and lognormal-ish** (Ousterhout '85: most files
  under a few KB; a thin tail of big ones).
- **Write traffic is overwrite-dominated** (Baker '91: a large share of
  writes hit recently written blocks -- mailboxes, editor save files,
  append logs).  Controlled by ``p_overwrite_start`` and the Zipf skew
  over the file population.
- **Most new bytes die young** (Baker '91: 65-80% of new bytes are
  deleted or overwritten within ~30 s).  Temp files are created, written
  and deleted after an exponential lifetime.
- **Arrivals are bursty** (exponential inter-arrivals at a configurable
  rate).

Generation is deterministic given ``(profile, seed)`` and is pure --
records are produced against an internal namespace model so replays
never hit ENOENT-style errors.

Draw order (pinned by the trace digests in ``tests/test_trace.py``):
all draws come from one :class:`random.Random`, the seed's
``trace:<profile name>`` substream.  Set-up: ``n_dirs`` MKDIRs, then per
initial file a file-size draw (``lognormvariate``; none when
``file_size_sigma`` is 0) and its CREATE + WRITE, in Zipf rank order.
Each op draws its arrival gap (``expovariate``; the stream ends at the
first arrival at or past ``duration_s``), emits the DELETEs of expired
temp files, then draws its kind (``random()`` against the cumulative
probabilities of write, whole rewrite, create temp, delete, exec, sync;
read takes the rest).  A *pick* is one ``random()`` turned into a Zipf
rank over the live files (no draw, and no record, when none is live).
Write: pick, io size, ``random()`` for offset 0 / EOF / a block, then
``randint`` for the block.  Whole rewrite: pick, file size.  Create
temp: io size, then an ``expovariate`` lifetime.  Delete: pick (nothing
while two files or fewer live).  Exec: ``choice``.  Sync: nothing.
Read: pick, io size, ``randint``.  Temp files still due inside the
window die after the last op.  :meth:`SyntheticTraceGenerator.generate`
is one loop that calls the bound ``random.Random`` methods directly:
~2.3 us per record (Python 3.11, 2-core Xeon), against ~6.2 us when
every draw went through :class:`~repro.sim.rand.RandomStream`.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import accumulate
from typing import List, Tuple

from repro.sim.rand import substream, zipf_cdf
from repro.trace.model import OpType, TraceRecord

BLOCK = 4096
#: The floor of every drawn file and I/O size.
MIN_DRAW_BYTES = 64


@dataclass(frozen=True)
class WorkloadProfile:
    """Tunable statistics for one synthetic workload."""

    name: str
    duration_s: float = 600.0
    ops_per_second: float = 10.0

    # Population.
    n_dirs: int = 6
    initial_files: int = 40
    file_select_skew: float = 1.1  # Zipf skew; higher = hotter head

    # Operation mix (probabilities; remainder is READ).
    p_write: float = 0.30
    p_whole_rewrite: float = 0.06  # editor "save": truncate + rewrite
    p_create_temp: float = 0.08
    p_delete: float = 0.01
    p_exec: float = 0.0
    p_sync: float = 0.004

    # Sizes.
    file_size_median: float = 6 * 1024.0
    file_size_sigma: float = 1.3
    max_file_bytes: int = 512 * 1024
    io_size_median: float = 2 * 1024.0
    io_size_sigma: float = 1.0
    max_io_bytes: int = 64 * 1024

    # Overwrite behaviour.
    p_overwrite_start: float = 0.55  # writes hitting offset 0
    p_append: float = 0.25  # writes appending at EOF
    temp_lifetime_s: float = 8.0  # mean temp-file lifetime

    # Programs for EXEC records: (name, code size in bytes).
    programs: Tuple[Tuple[str, int], ...] = ()

    def validate(self) -> None:
        total = (
            self.p_write
            + self.p_whole_rewrite
            + self.p_create_temp
            + self.p_delete
            + self.p_exec
            + self.p_sync
        )
        if total > 1.0 + 1e-9:
            raise ValueError(f"{self.name}: op probabilities sum to {total} > 1")
        if self.duration_s <= 0 or self.ops_per_second <= 0:
            raise ValueError(f"{self.name}: duration and rate must be positive")
        if self.p_exec > 0 and not self.programs:
            raise ValueError(f"{self.name}: p_exec > 0 needs programs")
        # The generator draws without RandomStream's per-call checks, so
        # the profile is checked here, once.
        if self.file_size_median <= 0 or self.io_size_median <= 0:
            raise ValueError(f"{self.name}: size medians must be positive")
        if self.max_file_bytes < MIN_DRAW_BYTES or self.max_io_bytes < MIN_DRAW_BYTES:
            raise ValueError(f"{self.name}: size caps must be at least {MIN_DRAW_BYTES} bytes")
        if self.file_select_skew < 0:
            raise ValueError(f"{self.name}: file_select_skew must be non-negative")
        if self.temp_lifetime_s <= 0:
            raise ValueError(f"{self.name}: temp_lifetime_s must be positive")


class SyntheticTraceGenerator:
    """Produces a deterministic, valid trace for a profile."""

    def __init__(self, profile: WorkloadProfile, seed: int = 0) -> None:
        profile.validate()
        self.profile = profile
        self.seed = seed

    def generate(self) -> List[TraceRecord]:
        """The full trace: set-up prologue plus the timed operation stream,
        drawn in the module docstring's order."""
        p = self.profile
        rng = substream(self.seed, f"trace:{p.name}").rng
        random, lognormvariate, expovariate = rng.random, rng.lognormvariate, rng.expovariate
        randint, choice = rng.randint, rng.choice
        Record = TraceRecord
        MKDIR, CREATE, WRITE, READ = OpType.MKDIR, OpType.CREATE, OpType.WRITE, OpType.READ
        DELETE, TRUNCATE = OpType.DELETE, OpType.TRUNCATE
        n_dirs, skew, duration, rate = p.n_dirs, p.file_select_skew, p.duration_s, p.ops_per_second
        # A file-size draw; a fixed size, and no draw, when sigma is 0.
        fixed_file_size = max(1, int(p.file_size_median)) if p.file_size_sigma == 0 else 0
        log_file_median, file_sigma = math.log(p.file_size_median), p.file_size_sigma
        log_io_median, io_sigma = math.log(p.io_size_median), p.io_size_sigma
        max_file, max_io = p.max_file_bytes, p.max_io_bytes
        overwrite_edge = p.p_overwrite_start
        append_edge = p.p_overwrite_start + p.p_append
        temp_rate = 1.0 / p.temp_lifetime_s
        write_edge, rewrite_edge, temp_edge, delete_edge, exec_edge, sync_edge = accumulate(
            (p.p_write, p.p_whole_rewrite, p.p_create_temp, p.p_delete, p.p_exec, p.p_sync))

        records: List[TraceRecord] = []
        emit = records.append
        # The live files, hottest (Zipf rank 0) first.
        paths: List[str] = []
        sizes: List[int] = []
        # (time, file id, path) heap of scheduled temp-file deletions.
        pending: List[Tuple[float, int, str]] = []

        for d in range(n_dirs):
            emit(Record(0.0, MKDIR, f"/d{d}"))
        for fid in range(p.initial_files):
            path = f"/d{fid % n_dirs}/f{fid}"
            size = fixed_file_size or int(min(
                max_file, max(MIN_DRAW_BYTES, lognormvariate(log_file_median, file_sigma))))
            paths.append(path)
            sizes.append(size)
            emit(Record(0.0, CREATE, path))
            emit(Record(0.0, WRITE, path, 0, size))
        next_fid = p.initial_files
        cdf_n = 0  # the population size that ``cdf`` ranks

        t = 0.0
        while True:
            t += expovariate(rate)
            # Temp files whose lifetime ran out die first; once t passes
            # the end, every one still due inside the window does.
            while pending:
                when = pending[0][0]
                if when > t or when >= duration:
                    break
                path = heappop(pending)[2]
                try:
                    i = paths.index(path)
                except ValueError:  # already deleted by a delete op
                    continue
                del paths[i], sizes[i]
                emit(Record(when, DELETE, path))
            if t >= duration:
                return records
            # An op kind is tagged by its first record's op: TRUNCATE is
            # a whole rewrite, CREATE a temp file.
            u = random()
            if u < write_edge:
                kind = WRITE
            elif u < rewrite_edge:
                kind = TRUNCATE
            elif u < temp_edge:
                kind = CREATE
            elif u < delete_edge:
                kind = DELETE
            elif u < exec_edge:
                emit(Record(t, OpType.EXEC, "/", program=choice(p.programs)[0]))
                continue
            elif u < sync_edge:
                emit(Record(t, OpType.SYNC, "/"))
                continue
            else:
                kind = READ
            if kind is not CREATE:
                n = len(paths)
                if not n:
                    continue
                if n != cdf_n:
                    cdf, cdf_n = zipf_cdf(n, skew), n
                i = bisect_left(cdf, random(), 0, n - 1)
                path, file_size = paths[i], sizes[i]
                if kind is DELETE:
                    if n > 2:
                        del paths[i], sizes[i]
                        emit(Record(t, DELETE, path))
                    continue
                if kind is TRUNCATE:
                    size = fixed_file_size or int(min(
                        max_file, max(MIN_DRAW_BYTES, lognormvariate(log_file_median, file_sigma))))
                    emit(Record(t, TRUNCATE, path))
                    emit(Record(t, WRITE, path, 0, size))
                    sizes[i] = size
                    continue
            # An io-size draw, clamped into [MIN_DRAW_BYTES, max_io].
            size = lognormvariate(log_io_median, io_sigma)
            size = (max_io if size >= max_io
                    else int(size) if size > MIN_DRAW_BYTES else MIN_DRAW_BYTES)
            if kind is READ:
                size = min(size, file_size)
                last = file_size - size
                emit(Record(t, READ, path, min(randint(0, last // BLOCK) * BLOCK, last), size))
            elif kind is WRITE:
                u = random()
                if u < overwrite_edge:
                    offset = 0
                elif u < append_edge:
                    offset = file_size
                else:
                    offset = randint(0, (file_size - 1) // BLOCK) * BLOCK
                sizes[i] = max(file_size, offset + size)
                emit(Record(t, WRITE, path, offset, size))
            else:
                # Temp files are hot by construction: they enter at rank 0.
                fid, next_fid = next_fid, next_fid + 1
                path = f"/d{fid % n_dirs}/tmp{fid}"
                paths.insert(0, path)
                sizes.insert(0, size)
                emit(Record(t, CREATE, path))
                emit(Record(t, WRITE, path, 0, size))
                heappush(pending, (t + expovariate(temp_rate), fid, path))
