"""Golden harness: regenerate every committed experiment table.

One case per id with a committed ``benchmarks/out/<id>.txt``.  Each case
runs the driver once under pytest-benchmark (whose timing is the
driver's host-side cost) and rewrites that file with
``result.render() + "\\n"``, the same text ``python -m repro experiments
<id>`` prints.  ``make golden-check`` then fails on any ``git diff``.
"""

from __future__ import annotations

import glob
import os

import pytest

from repro.analysis.experiments import ALL_EXPERIMENTS

OUT_DIR = os.path.join(os.path.dirname(__file__), "out")
GOLDEN_IDS = sorted(
    os.path.splitext(os.path.basename(path))[0]
    for path in glob.glob(os.path.join(OUT_DIR, "*.txt"))
)


@pytest.mark.parametrize("eid", GOLDEN_IDS)
def test_experiment(benchmark, quick, eid):
    assert eid in ALL_EXPERIMENTS, f"benchmarks/out/{eid}.txt has no driver in ALL_EXPERIMENTS"
    driver = ALL_EXPERIMENTS[eid]
    result = benchmark.pedantic(lambda: driver(quick=quick), rounds=1, iterations=1)
    assert result.rows, f"{eid} produced no rows"
    if "violations" in result.headers:
        assert sum(row["violations"] for row in result.row_dicts()) == 0
    with open(os.path.join(OUT_DIR, f"{eid}.txt"), "w", encoding="utf-8") as fh:
        fh.write(result.render() + "\n")
