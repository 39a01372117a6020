"""Property-based tests: the memory-resident FS against an in-memory model.

Random sequences of create/write/read/truncate/delete/sync must leave the
FS indistinguishable from a trivial dict-of-bytearrays model -- including
across storage-manager flushes and garbage collection.
"""

from hypothesis import given, settings, strategies as st

from repro.devices import DRAM, FlashMemory
from repro.fs import MemoryFileSystem
from repro.fs.api import FileNotFoundFSError
from repro.sim import SimClock

from tests._storage import build_manager

KB = 1024
MB = 1024 * 1024

FILES = ["/f0", "/f1", "/f2"]


@st.composite
def fs_ops(draw):
    ops = []
    for _ in range(draw(st.integers(1, 60))):
        kind = draw(
            st.sampled_from(["write", "write", "read", "truncate", "delete", "sync"])
        )
        path = draw(st.sampled_from(FILES))
        if kind == "write":
            offset = draw(st.integers(0, 20 * KB))
            length = draw(st.integers(1, 6 * KB))
            fill = draw(st.integers(0, 255))
            ops.append(("write", path, offset, bytes([fill]) * length))
        elif kind == "read":
            offset = draw(st.integers(0, 24 * KB))
            length = draw(st.integers(0, 8 * KB))
            ops.append(("read", path, offset, length))
        elif kind == "truncate":
            ops.append(("truncate", path, draw(st.integers(0, 24 * KB)), None))
        else:
            ops.append((kind, path, 0, None))
    return ops


class ModelFS:
    """Reference model: plain bytearrays."""

    def __init__(self):
        self.files = {}

    def write(self, path, offset, data):
        buf = self.files.setdefault(path, bytearray())
        if len(buf) < offset:
            buf.extend(bytes(offset - len(buf)))
        end = offset + len(data)
        if len(buf) < end:
            buf.extend(bytes(end - len(buf)))
        buf[offset:end] = data

    def read(self, path, offset, length):
        buf = self.files.get(path)
        if buf is None:
            return None
        return bytes(buf[offset : offset + length])

    def truncate(self, path, size):
        buf = self.files.get(path)
        if buf is None:
            return
        if size <= len(buf):
            del buf[size:]
        else:
            buf.extend(bytes(size - len(buf)))

    def delete(self, path):
        self.files.pop(path, None)


@given(fs_ops(), st.integers(0, 256 * KB))
@settings(max_examples=40, deadline=None)
def test_memfs_matches_model(ops, buffer_bytes):
    clock = SimClock()
    flash = FlashMemory(8 * MB, banks=2)
    dram = DRAM(2 * MB)
    manager = build_manager(clock, flash, dram=dram, buffer_bytes=buffer_bytes)
    fs = MemoryFileSystem(manager, dram=dram)
    model = ModelFS()

    for kind, path, offset, arg in ops:
        exists = path in model.files
        if kind == "write":
            if not exists:
                fs.create(path)
                model.files[path] = bytearray()
            fs.write(path, offset, arg)
            model.write(path, offset, arg)
        elif kind == "read":
            expected = model.read(path, offset, arg)
            if expected is None:
                try:
                    fs.read(path, offset, arg)
                    raise AssertionError("read of missing file succeeded")
                except FileNotFoundFSError:
                    pass
            else:
                assert fs.read(path, offset, arg) == expected
        elif kind == "truncate":
            if exists:
                fs.truncate(path, offset)
                model.truncate(path, offset)
        elif kind == "delete":
            if exists:
                fs.delete(path)
                model.delete(path)
        elif kind == "sync":
            fs.sync()
        clock.advance(0.5)

    # Final full verification, after one more sync (forces flash paths).
    fs.sync()
    for path, buf in model.files.items():
        assert fs.read(path, 0, len(buf) + 100) == bytes(buf)
        assert fs.stat(path).size == len(buf)
    for path in FILES:
        assert fs.exists(path) == (path in model.files)
    manager.store.allocator.check_invariants()
