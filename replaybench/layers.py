"""Layer boundaries of the simulator and the span recorder that times them.

The benchmark attributes host time to the simulator's layers without
editing the simulator: :class:`SpanRecorder` temporarily replaces each
public entry point listed in :data:`LAYERS` with a wrapper that opens a
span around the call.  A span's *self time* is its duration minus the
time covered by the spans it caused, so the self times of all layers plus
the root span's residual add up to the root span's wall time exactly.

Two counts are kept per entry point:

- ``crossings`` -- calls that enter the layer from a different layer
  (the per-layer ``calls_per_op`` work proxy).  A layer calling its own
  public methods (``FlashMemory.write`` delegating to ``program``) is one
  crossing, not two.
- ``invocations`` -- every call, nested or not, which is what the
  program's own per-method counters count (the coverage cross-check).

Wrappers record nothing while no root span is open, so machine
construction (``mkfs``) and the read-back check stay out of the figures.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.devices.disk import MagneticDisk
from repro.devices.dram import DRAM
from repro.devices.flash import FlashMemory
from repro.fs.blockdev import DiskBlockDevice
from repro.fs.cache import BufferCache
from repro.fs.diskfs import ConventionalFileSystem
from repro.fs.flashlog import LogStructuredFTL
from repro.fs.memfs import MemoryFileSystem
from repro.power.energy import PowerModel
from repro.sim.engine import Engine
from repro.storage.flashstore import FlashStore
from repro.storage.manager import StorageManager
from repro.storage.writebuffer import WriteBuffer

#: Name of the root span: the replay loop and scheduler step.
ROOT = "trace.replay"

FS_METHODS = (
    "create", "mkdir", "rmdir", "delete", "rename", "listdir", "stat",
    "exists", "write", "read", "truncate", "sync",
)

#: Layer name -> (class, public entry points) forming its boundary.
LAYERS: Tuple[Tuple[str, Tuple[Tuple[type, Tuple[str, ...]], ...]], ...] = (
    ("sim.engine", ((Engine, ("run_until",)),)),
    ("power.energy", ((PowerModel, ("settle",)),)),
    ("fs.memfs", ((MemoryFileSystem, FS_METHODS),)),
    ("fs.diskfs", ((ConventionalFileSystem, FS_METHODS),)),
    ("fs.cache", ((BufferCache, ("read", "write", "flush")),)),
    ("fs.blockdev", (
        (DiskBlockDevice, ("read_block", "write_block")),
        (LogStructuredFTL, ("read_block", "write_block", "trim")),
    )),
    ("storage.manager", (
        (StorageManager, ("write_block", "read_block", "delete_block", "sync")),
    )),
    ("storage.writebuffer", (
        (WriteBuffer, ("put", "get", "drop", "flush_aged", "flush_all", "flush_key")),
    )),
    ("storage.flashstore", (
        (FlashStore, ("write_block", "read_block", "delete_block")),
    )),
    ("devices.dram", (
        (DRAM, ("read", "read_view", "write", "charge_read", "charge_write")),
    )),
    ("devices.flash", (
        (FlashMemory, ("read", "write", "program", "erase_sector",
                       "charge_read", "charge_write")),
    )),
    ("devices.disk", (
        (MagneticDisk, ("read", "write", "charge_read", "charge_write")),
    )),
)

#: Entry points whose data argument's byte length is summed, keyed by
#: (class, method) -> positional index of the data argument (self = 0).
#: The coverage cross-check compares these sums with the program's own
#: byte counters.
DATA_ARGS: Dict[Tuple[type, str], int] = {
    (MemoryFileSystem, "write"): 3,
    (ConventionalFileSystem, "write"): 3,
    (StorageManager, "write_block"): 2,
    (WriteBuffer, "put"): 2,
    (FlashStore, "write_block"): 2,
}

Site = Tuple[str, type, str]


def layer_sites() -> List[Site]:
    """Flatten :data:`LAYERS` into ``(layer, class, method)`` sites."""
    return [
        (layer, cls, method)
        for layer, entries in LAYERS
        for cls, methods in entries
        for method in methods
    ]


class SpanRecorder:
    """Per-layer self time and call counts from wrapped entry points.

    ``clock`` is injectable so tests can drive the arithmetic with a fake
    clock; the benchmark uses :func:`time.perf_counter`.
    """

    def __init__(
        self,
        sites: Optional[Sequence[Site]] = None,
        clock: Callable[[], float] = time.perf_counter,
        data_args: Optional[Dict[Tuple[type, str], int]] = None,
    ) -> None:
        self.sites: List[Site] = list(layer_sites() if sites is None else sites)
        self.clock = clock
        self.data_args = DATA_ARGS if data_args is None else data_args
        self.layers: List[str] = [ROOT]
        for layer, _cls, _method in self.sites:
            if layer not in self.layers:
                self.layers.append(layer)
        self._layer_index = {name: i for i, name in enumerate(self.layers)}
        self.self_s = [0.0] * len(self.layers)
        self.crossings = [0] * len(self.sites)
        self.invocations = [0] * len(self.sites)
        self.data_bytes = [0] * len(self.sites)
        # Open spans, innermost last: [layer index, child seconds].
        self._stack: List[List] = []
        self._saved: List[Tuple[type, str, Optional[object]]] = []

    # ------------------------------------------------------------------
    # Wrapping.
    # ------------------------------------------------------------------

    def _wrap(self, site_index: int, fn: Callable) -> Callable:
        layer_index = self._layer_index[self.sites[site_index][0]]
        _layer, cls, method = self.sites[site_index]
        data_arg = self.data_args.get((cls, method))
        stack = self._stack
        clock = self.clock
        self_s = self.self_s
        crossings = self.crossings
        invocations = self.invocations
        data_bytes = self.data_bytes

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            parent = stack[-1]
            invocations[site_index] += 1
            if parent[0] != layer_index:
                crossings[site_index] += 1
            if data_arg is not None and len(args) > data_arg:
                data_bytes[site_index] += len(args[data_arg])
            frame = [layer_index, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self_s[layer_index] += elapsed - frame[1]
                parent[1] += elapsed

        return span

    @contextmanager
    def installed(self) -> Iterator["SpanRecorder"]:
        """Wrap every site for the duration of the block.

        Build machines *inside* the block: components that bind entry
        points at construction (periodic timers hold ``self.flush``)
        must capture the wrapped versions.
        """
        if self._saved:
            raise RuntimeError("span wrappers are already installed")
        try:
            for index, (_layer, cls, method) in enumerate(self.sites):
                self._saved.append((cls, method, cls.__dict__.get(method)))
                setattr(cls, method, self._wrap(index, getattr(cls, method)))
            yield self
        finally:
            for cls, method, original in reversed(self._saved):
                if original is None:
                    delattr(cls, method)
                else:
                    setattr(cls, method, original)
            self._saved.clear()

    @contextmanager
    def root(self) -> Iterator[None]:
        """The root span: everything the replay does between layer calls."""
        if self._stack:
            raise RuntimeError("root span is already open")
        frame = [0, 0.0]
        self._stack.append(frame)
        start = self.clock()
        try:
            yield
        finally:
            elapsed = self.clock() - start
            self._stack.pop()
            self.self_s[0] += elapsed - frame[1]

    # ------------------------------------------------------------------
    # Results.
    # ------------------------------------------------------------------

    def layer_self_s(self, layer: str) -> float:
        return self.self_s[self._layer_index[layer]]

    def layer_calls(self, layer: str) -> int:
        """Crossings into ``layer`` from any other layer."""
        return sum(
            n for (name, _c, _m), n in zip(self.sites, self.crossings) if name == layer
        )

    def method_invocations(self, layer: str, method: str) -> int:
        """Every call of ``method`` on any class of ``layer``."""
        return sum(
            n
            for (name, _c, m), n in zip(self.sites, self.invocations)
            if name == layer and m == method
        )

    def method_bytes(self, layer: str, method: str) -> int:
        """Summed data-argument length of ``method`` calls in ``layer``."""
        return sum(
            n
            for (name, _c, m), n in zip(self.sites, self.data_bytes)
            if name == layer and m == method
        )

    def closure_error(self, wall_s: float) -> float:
        """|sum of all self times - wall_s| / wall_s, where ``wall_s`` is
        the replay's wall time measured outside the root span."""
        return abs(sum(self.self_s) - wall_s) / wall_s
