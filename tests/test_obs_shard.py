"""Parallel-safe tracing: the in-memory canonical merge of every job's
records is deterministic, independent of worker count, and
byte-identical to a serial trace."""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import Tracer, write_trace
from repro.obs import tracer as tracer_module

COMPONENTS = ["flash", "dram", "writebuffer", "engine"]


def _records(events):
    tracer = Tracer()
    for t, component, op, nbytes, *detail in events:
        tracer.emit(component, op, t, nbytes, detail=detail[0] if detail else None)
    return tracer.records


def _rows(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


event_lists = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=10.0, allow_nan=False, width=32),
        st.sampled_from(COMPONENTS),
        st.sampled_from(["read", "write", "event"]),
        st.integers(min_value=0, max_value=1 << 16),
    ),
    max_size=40,
)


class TestCanonicalMerge:
    def test_single_shard_equals_canonical(self, tmp_path):
        records = _records([(2.0, "flash", "read", 10), (1.0, "dram", "write", 4),
                            (1.0, "flash", "write", 8)])
        out = tmp_path / "trace.jsonl"
        assert write_trace(str(out), [records]) == 3
        # The canonical form of one job: its events sorted on (t, seq),
        # each stamped with its emission index and shard 0.
        expected = [
            {"t": t, "component": c, "op": o, "bytes": n, "latency_s": lat,
             "outcome": outcome, "seq": seq, "shard": 0}
            for seq, (t, c, o, n, lat, outcome, _detail) in enumerate(records)
        ]
        expected.sort(key=lambda event: (event["t"], event["seq"]))
        assert out.read_text() == "".join(
            json.dumps(event, sort_keys=True) + "\n" for event in expected
        )

    def test_equal_timestamps_keep_shard_order(self, tmp_path):
        a = _records([(1.0, "flash", "read", 1), (1.0, "flash", "read", 2)])
        b = _records([(1.0, "dram", "write", 3)])
        out = tmp_path / "merged.jsonl"
        write_trace(str(out), [a, b])
        rows = _rows(out)
        # Ties on t break on (seq, shard): shard 0's events first, in
        # emission order, then shard 1's.
        assert [(r["seq"], r["shard"], r["bytes"]) for r in rows] == [
            (0, 0, 1), (0, 1, 3), (1, 0, 2),
        ]

    def test_chrome_chunks_equal_one_dumps(self, tmp_path, monkeypatch):
        """The chunked Chrome writer emits the bytes of one ``json.dumps``
        of the whole document, built from the JSONL trace it wrote."""
        monkeypatch.setattr(tracer_module, "_CHROME_CHUNK", 2)
        records = _records([
            (0.5, "flash", "program", 256, {"wait": 0.25, "bank": 1}),
            (0.25, "engine", "event", 0, {"pending": 3, "name": "tick"}),
            (0.75, "flash", "read", 64),
            (1.0, "disk", "write", 512, {}),
            (1.5, "engine", "event", 0, {"pending": 2}),
        ])
        out = tmp_path / "trace.jsonl"
        assert write_trace(str(out), [records], dropped=7) == 5
        tids = {}
        events = []
        for event in _rows(out):
            args = {"bytes": event["bytes"], "outcome": event["outcome"]}
            if event.get("detail"):
                args.update(event["detail"])
            events.append({
                "name": event["op"], "cat": event["component"], "ph": "X",
                "ts": event["t"] * 1e6, "dur": event["latency_s"] * 1e6,
                "pid": 1,
                "tid": tids.setdefault(event["component"], len(tids) + 1),
                "args": args,
            })
        doc = {"traceEvents": events, "displayTimeUnit": "ms",
               "otherData": {"dropped_events": 7}}
        chrome = (tmp_path / "trace.jsonl.chrome.json").read_text()
        assert chrome == json.dumps(doc) + "\n"

    def test_empty_trace(self, tmp_path):
        out = tmp_path / "empty.jsonl"
        assert write_trace(str(out), [[], []]) == 0
        assert out.read_text() == ""
        with open(str(out) + ".chrome.json", encoding="utf-8") as fh:
            assert json.load(fh)["traceEvents"] == []

    @settings(max_examples=30, deadline=None)
    @given(jobs=st.lists(event_lists, min_size=1, max_size=4))
    def test_merge_is_permutation_sorted_and_stable(self, tmp_path_factory, jobs):
        tmp_path = tmp_path_factory.mktemp("jobs")
        records = [_records(events) for events in jobs]
        out = tmp_path / "merged.jsonl"
        written = write_trace(str(out), records)
        rows = _rows(out)
        assert written == len(rows) == sum(len(events) for events in jobs)
        # Sorted by the canonical key...
        keys = [(r["t"], r["seq"], r["shard"]) for r in rows]
        assert keys == sorted(keys)
        # ...a permutation of the input events...
        got = sorted((r["t"], r["component"], r["op"], r["bytes"]) for r in rows)
        expected = sorted(
            (t, c, o, n) for events in jobs for t, c, o, n in events
        )
        assert got == expected
        # ...and seq matches each event's emission index within its job.
        for r in rows:
            t, c, o, n = jobs[r["shard"]][r["seq"]]
            assert (r["t"], r["component"], r["op"], r["bytes"]) == (t, c, o, n)
        # Writing again (different output path) is byte-identical.
        out2 = tmp_path / "merged2.jsonl"
        write_trace(str(out2), records)
        assert out.read_bytes() == out2.read_bytes()
        chrome = tmp_path / "merged.jsonl.chrome.json"
        assert chrome.read_bytes() == (tmp_path / "merged2.jsonl.chrome.json").read_bytes()


class TestParallelCLI:
    def test_parallel_trace_byte_identical_to_serial(self, capsys, tmp_path):
        """The acceptance property: experiments --trace composes with
        -j N and merges to the exact bytes a serial run produces."""
        from repro.cli import main

        serial = tmp_path / "serial.jsonl"
        parallel = tmp_path / "parallel.jsonl"
        # The two quickest experiments whose traces still carry machine,
        # DRAM, write-buffer, flashstore, VM and flash events.
        ids = ["E5", "E8"]
        assert main(["experiments", *ids, "-j", "1", "--trace", str(serial)]) == 0
        serial_out = capsys.readouterr().out
        assert main(["experiments", *ids, "-j", "2", "--trace", str(parallel)]) == 0
        parallel_out = capsys.readouterr().out
        assert serial.read_bytes() == parallel.read_bytes()
        assert serial.stat().st_size > 0
        assert serial_out == parallel_out  # rendered tables too
        chrome_s = (tmp_path / "serial.jsonl.chrome.json").read_bytes()
        chrome_p = (tmp_path / "parallel.jsonl.chrome.json").read_bytes()
        assert chrome_s == chrome_p
        with open(str(parallel) + ".manifest.json", encoding="utf-8") as fh:
            manifest = json.load(fh)
        assert manifest["shards"] == len(ids)
        assert manifest["jobs"] == 2
        lines = serial.read_text().splitlines()
        assert manifest["events"] == len(lines)
        # Every shard contributed events, so the merge really interleaved.
        assert {json.loads(line)["shard"] for line in lines} == set(range(len(ids)))

    def test_parallel_jobs_with_monitors(self, capsys, tmp_path):
        from repro.cli import main

        rc = main(["experiments", "E5", "E8", "-j", "2", "--trace",
                   str(tmp_path / "m.jsonl"), "--monitors"])
        assert rc == 0
        assert "monitors ok" in capsys.readouterr().out
