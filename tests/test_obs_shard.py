"""Parallel-safe trace sharding: the canonical merge is deterministic,
independent of worker count, and byte-identical to a serial trace."""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import Tracer, merge_shards_to_jsonl, shard_filename

COMPONENTS = ["flash", "dram", "writebuffer", "engine"]


def _emit_all(tracer, events):
    for t, component, op, nbytes in events:
        tracer.emit(component, op, t, nbytes)


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
        tracer = Tracer()
        _emit_all(tracer, [(2.0, "flash", "read", 10), (1.0, "dram", "write", 4),
                           (1.0, "flash", "write", 8)])
        shard = shard_filename(str(tmp_path / "trace"), 0)
        tracer.to_jsonl(shard)
        merged = tmp_path / "merged.jsonl"
        assert merge_shards_to_jsonl(str(merged), [shard]) == 3
        # The canonical form of one shard: the raw lines stable-sorted on
        # (t, seq), each stamped with its emission index and shard 0.
        raw = [json.loads(line) for line in open(shard, encoding="utf-8")]
        expected = [dict(event, seq=seq, shard=0) for seq, event in enumerate(raw)]
        expected.sort(key=lambda event: (event["t"], event["seq"]))
        assert merged.read_text() == "".join(
            json.dumps(event, sort_keys=True) + "\n" for event in expected
        )

    def test_equal_timestamps_keep_shard_order(self, tmp_path):
        a, b = Tracer(), Tracer()
        _emit_all(a, [(1.0, "flash", "read", 1), (1.0, "flash", "read", 2)])
        _emit_all(b, [(1.0, "dram", "write", 3)])
        sa = shard_filename(str(tmp_path / "t"), 0)
        sb = shard_filename(str(tmp_path / "t"), 1)
        a.to_jsonl(sa)
        b.to_jsonl(sb)
        out = tmp_path / "merged.jsonl"
        merge_shards_to_jsonl(str(out), [sa, sb])
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        # Ties on t break on (seq, shard): shard 0's events first, in
        # emission order, then shard 1's.
        assert [(r["seq"], r["shard"], r["bytes"]) for r in rows] == [
            (0, 0, 1), (0, 1, 3), (1, 0, 2),
        ]

    def test_shard_filename_format(self):
        assert shard_filename("/x/trace", 3) == "/x/trace.shard0003.jsonl"

    @settings(max_examples=30, deadline=None)
    @given(shards=st.lists(event_lists, min_size=1, max_size=4))
    def test_merge_is_permutation_sorted_and_stable(self, tmp_path_factory,
                                                    shards):
        tmp_path = tmp_path_factory.mktemp("shards")
        paths = []
        for i, events in enumerate(shards):
            tracer = Tracer()
            _emit_all(tracer, events)
            path = shard_filename(str(tmp_path / "t"), i)
            tracer.to_jsonl(path)
            paths.append(path)
        out = tmp_path / "merged.jsonl"
        written = merge_shards_to_jsonl(str(out), paths)
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert written == len(rows) == sum(len(s) for s in shards)
        # Sorted by the canonical key...
        keys = [(r["t"], r["seq"], r["shard"]) for r in rows]
        assert keys == sorted(keys)
        # ...a permutation of the input events...
        got = sorted((r["t"], r["component"], r["op"], r["bytes"]) for r in rows)
        expected = sorted(
            (t, c, o, n) for events in shards for t, c, o, n in events
        )
        assert got == expected
        # ...and seq matches each event's emission index within its shard.
        for r in rows:
            t, c, o, n = shards[r["shard"]][r["seq"]]
            assert (r["t"], r["component"], r["op"], r["bytes"]) == (t, c, o, n)
        # Merging again (different output path) is byte-identical.
        out2 = tmp_path / "merged2.jsonl"
        merge_shards_to_jsonl(str(out2), paths)
        assert out.read_bytes() == out2.read_bytes()


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
