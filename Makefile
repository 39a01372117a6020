# Convenience targets; everything honors PYTHONPATH=src (no install step).

PY ?= python
export PYTHONPATH := src

.PHONY: check test golden-check replaybench-test trace-smoke analyze-smoke e14-smoke \
	examples-smoke work-record replaybench experiments torture

# The default gate: unit tests (the deterministic work gate,
# tests/test_work_gate.py, among them), then the experiment-table
# goldens, then the replay benchmark's own tests, then the traced-run
# smoke (schema-valid JSONL + hub/device accounting identity + clean
# online monitors), then the trace-analytics smoke over that trace, then
# the multi-client contention smoke, then every example script.  It
# writes only git-ignored files.
check: test golden-check replaybench-test trace-smoke analyze-smoke e14-smoke \
	examples-smoke

test:
	$(PY) -m pytest -x -q

# Regenerate all 16 experiment tables (E1-E14, X1, X2) and fail if any
# differs from the committed benchmarks/out/*.txt: a simplification must
# leave every simulated number byte-identical.  The glob matches the one
# harness, benchmarks/bench_experiments.py, which runs a case per
# committed golden and fails on a golden with no driver.  E14's case (2
# clients x 5 organizations) adds 0.8-1.05 s on a 2-core Xeon, Python
# 3.11.
golden-check:
	$(PY) -m pytest benchmarks/bench_*.py --benchmark-disable -q
	git diff --exit-code -- 'benchmarks/out/*.txt'

# The replay benchmark's own tests: span recorder, shadow model,
# fingerprints and host-speed scaling (a few seconds, short replays only).
replaybench-test:
	$(PY) -m pytest replaybench -q

# Tiny traced run: validates the JSONL trace against its schema, the
# Chrome export, the MetricsHub-vs-device accounting identity, and zero
# violations from all four stock online invariant monitors.
trace-smoke:
	$(PY) -m repro trace-smoke

# Trace analytics over the smoke trace: the analyze report must render
# and a trace diffed against itself must flag nothing (exit 1 if not).
analyze-smoke:
	$(PY) -m repro analyze benchmarks/out/trace_smoke.jsonl > /dev/null
	$(PY) -m repro trace-diff benchmarks/out/trace_smoke.jsonl \
		benchmarks/out/trace_smoke.jsonl --threshold 0 --check

# Quick 2-client contention run through the kernel request path: every
# stock online monitor attached, non-zero exit on any violation.
e14-smoke:
	$(PY) -m repro experiments E14 -j 2 \
		--trace benchmarks/out/e14_smoke.jsonl --monitors > /dev/null

# Run every examples/*.py script (10-12 s in all on a 2-core Xeon,
# Python 3.11; they write no files).  The examples are the only callers
# of a few public APIs, so a change that breaks one must fail here.
examples-smoke:
	for f in examples/*.py; do $(PY) $$f > /dev/null || exit 1; done

# Re-record the work gate's per-module call counts (and line counts for
# its LINE_RUNS) into benchmarks/work_counts.json (commit the file with the change that
# moved them; tests/test_work_gate.py requires an exact match).
work-record:
	$(PY) -m repro.analysis.workgate

# One short run of each replaybench workload (tracer off): end-to-end
# metrics and the read-back correctness check, ~10 s per workload.
replaybench:
	for w in office-disk office-solid database-ftl; do \
		$(PY) replaybench/run.py --workload $$w --seed 1 --seconds 10 --trace 0 || exit 1; \
	done

experiments:
	$(PY) -m repro experiments --all -j 4

torture:
	$(PY) -m repro torture --quick
