"""Golden-hash and cross-process determinism tests for payload_for.

The payload generator seeds from ``zlib.crc32`` (not the salted builtin
``hash``), so the same (path, offset, nbytes) must produce the same
bytes in *any* process -- including subprocesses started with different
PYTHONHASHSEED values, which is exactly the situation the parallel
experiment runner creates.  The golden hashes pin the byte stream
itself: regenerating payloads differently is an intentional, documented
event, not an accident.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import zlib

from repro.trace import replay
from repro.trace.replay import payload_for, payload_seed

GOLDEN = {
    ("/usr/alice/mail/inbox", 0, 4096): (
        "f20587027a65d14b9b2f5a344544c69a43dd5d6e6857788b664756f8a5623518"
    ),
    ("/tmp/t0", 512, 1000): (
        "b22f8d53a8615aa5cad03887570df1f6f240aad5a4f691b969fdfae389a94dfc"
    ),
    ("/f", 0, 100): (
        "0e0aa30776d3f5cb623efb321f684b5be8c5acb0bd2b4f9c179f3dc6f6860d15"
    ),
}


class TestGoldenHashes:
    def test_pinned_payload_hashes(self):
        for (path, offset, nbytes), expected in GOLDEN.items():
            digest = hashlib.sha256(payload_for(path, offset, nbytes)).hexdigest()
            assert digest == expected, (path, offset, nbytes)

    def test_length_and_repeatability(self):
        a = payload_for("/x/y", 4096, 777)
        assert len(a) == 777
        assert a == payload_for("/x/y", 4096, 777)
        assert a != payload_for("/x/z", 4096, 777)

    def test_pattern_half_is_a_slice_of_the_ramp(self):
        seed = payload_seed("/p", 128)
        data = payload_for("/p", 128, 4096)
        unit = bytes((seed + i) & 0xFF for i in range(64))
        ramp = bytes(range(256)) * 2
        assert unit == ramp[seed % 256 : seed % 256 + 64]
        assert data[:2048] == (unit * (2048 // 64 + 1))[:2048]

    def test_compression_ratio_near_two_to_one(self):
        # Half pattern + half PRNG should keep zlib close to the 2:1 the
        # compression ablation (X1) is calibrated against.
        blob = b"".join(payload_for(f"/ratio/{i}", 0, 4096) for i in range(16))
        ratio = len(blob) / len(zlib.compress(blob))
        assert 1.5 <= ratio <= 3.0, ratio

    def test_no_process_global_cache(self):
        # Payloads are rebuilt on every call: equal bytes, distinct
        # objects, and no memo anywhere in the module holding them.
        first = payload_for("/memo", 0, 512)
        second = payload_for("/memo", 0, 512)
        assert first == second and first is not second
        for name, value in vars(replay).items():
            assert not hasattr(value, "cache_info"), name
            assert not isinstance(value, dict) or name.startswith("__"), name


class TestCrossProcessDeterminism:
    def _hash_in_subprocess(self, hashseed: str) -> str:
        code = (
            "import hashlib;"
            "from repro.trace.replay import payload_for;"
            "print(hashlib.sha256(payload_for('/usr/alice/mail/inbox', 0, 4096))"
            ".hexdigest())"
        )
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = hashseed
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        out = subprocess.run(
            [sys.executable, "-c", code],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        return out.stdout.strip()

    def test_same_bytes_under_different_hash_seeds(self):
        first = self._hash_in_subprocess("1")
        second = self._hash_in_subprocess("31337")
        assert first == second
        assert first == GOLDEN[("/usr/alice/mail/inbox", 0, 4096)]

    def test_seed_is_crc32_based(self):
        raw = b"/a/b\x00" + b"8192"
        assert payload_seed("/a/b", 8192) == ((zlib.crc32(raw) & 0xFFFF) or 1)
