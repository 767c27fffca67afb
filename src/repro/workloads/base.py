"""Workload interface and the per-processor stream builder.

A workload turns (processor count, simulation config, RNG) into a
:class:`TraceBundle`: one encoded reference stream per processor plus
instruction counts and metadata.  The :class:`StreamBuilder` is the
small emission API the concrete workloads compose — fetch bursts,
loads/stores, lock round-trips, tree descents, allocation runs —
keeping every workload's generator readable.  A builder collects one
processor's references as Python ints; the finished streams become
the bundle's ``uint64`` arrays.  Long runs are built with numpy, bit
for bit: only consecutive RNG draws with the same method and bounds
become one sized draw.

Code bursts, where most of generation's draws are, run as one call of
a compiled step (:func:`repro.memsys.fastpath_coherence.burst_frame`)
that draws from the builder's own generator through numpy's own C
samplers, so the trace and the generator's state come out byte for
byte as :meth:`StreamBuilder.reference_burst`, the Python reference,
leaves them.  A builder chooses its step once, at construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterator, Protocol, runtime_checkable

import numpy as np

from repro import obs
from repro.core.config import SimConfig
from repro.errors import WorkloadError
from repro.jvm.heap import AllocationCursor
from repro.jvm.objects import ObjectTree
from repro.memsys.block import IFETCH, LOAD, STORE, encode_ref, encode_refs
from repro.memsys.fastpath import fastpath_enabled
from repro.rng import RngFactory
from repro.workloads.codepath import CodeLayout

if TYPE_CHECKING:
    from repro.memsys.fastpath_coherence import BurstFrame


@dataclass
class TraceBundle:
    """Generated reference streams for one measurement interval.

    Streams are held as ``uint64`` numpy arrays (the packed encoding of
    :mod:`repro.memsys.block`), so vectorized consumers replay them
    without a Python-list detour; construction still accepts plain
    lists and normalizes.  Scalar consumers that walk references one at
    a time should take :meth:`per_cpu_lists` (Python ints iterate much
    faster than numpy scalars).
    """

    workload: str
    per_cpu: list[np.ndarray]
    instructions: list[int]
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.per_cpu = [np.asarray(t, dtype=np.uint64) for t in self.per_cpu]

    @property
    def n_procs(self) -> int:
        return len(self.per_cpu)

    @property
    def total_refs(self) -> int:
        return sum(int(t.size) for t in self.per_cpu)

    @property
    def total_instructions(self) -> int:
        return sum(self.instructions)

    def merged(self) -> np.ndarray:
        """All streams concatenated (for uniprocessor sweeps)."""
        if not self.per_cpu:
            return np.empty(0, dtype=np.uint64)
        return np.concatenate(self.per_cpu)

    def per_cpu_lists(self) -> list[list[int]]:
        """Per-processor streams as lists of Python ints."""
        return [t.tolist() for t in self.per_cpu]


@dataclass
class ChunkedTrace:
    """Chunked trace generation: declared lengths plus lazy chunk iterators.

    The streaming counterpart of :class:`TraceBundle`: ``per_cpu[cpu]``
    yields fixed-size ``uint64`` chunks whose concatenation is exactly
    ``TraceBundle.per_cpu[cpu]``, but nothing is materialized until a
    consumer pulls.  ``lengths`` are declared up front (they depend
    only on the simulation config), so a miss-curve sweep
    (:func:`repro.memsys.stream.simulate_miss_curve_stream`, the
    consumer) places its warmup split before generation starts.
    Iterators for different processors are independent: the emission
    state behind each (RNG stream, allocation cursors, stream builder)
    is per-processor, so consumers may interleave them freely.
    Hierarchy replay takes materialized traces (:class:`TraceBundle`).
    """

    lengths: list[int]
    per_cpu: list[Iterator[np.ndarray]]


def emit_chunked_refs(
    builder: "StreamBuilder",
    target: int,
    chunk_refs: int,
    emit_txn: Callable[[], None],
) -> Iterator[np.ndarray]:
    """Drive a transaction emitter, yielding fixed-size ``uint64`` chunks.

    Bit-identical to the materialized loop ``while len(builder.refs) <
    target: emit_txn()`` followed by ``builder.refs[:target]``: the
    emitter is called under exactly the same condition (pending plus
    already-yielded references below target), so it consumes the RNG
    identically, and flushing never touches the RNG.  The final
    transaction's overshoot past ``target`` is dropped, exactly like
    the materialized truncation.  ``builder.refs`` may be pre-seeded
    (pre-warm preambles) and is consumed destructively, so the buffer
    never grows past one transaction beyond ``chunk_refs``.
    """
    if target < 0:
        raise WorkloadError("target must be non-negative")
    if chunk_refs < 1:
        raise WorkloadError("chunk_refs must be >= 1")
    refs = builder.refs
    emitted = 0
    while emitted + len(refs) < target:
        emit_txn()
        while len(refs) >= chunk_refs and emitted + chunk_refs <= target:
            yield np.array(refs[:chunk_refs], dtype=np.uint64)
            del refs[:chunk_refs]
            emitted += chunk_refs
    del refs[target - emitted :]
    while refs:
        yield np.array(refs[:chunk_refs], dtype=np.uint64)
        del refs[:chunk_refs]


class StreamBuilder:
    """Accumulates one processor's reference stream."""

    #: Per-instruction frequency of loads and stores accompanying
    #: straight-line code (locals, spilled registers, field reads the
    #: actions do not model explicitly).  SPARC integer code issues a
    #: memory operation roughly every third instruction.
    LOADS_PER_INSTR = 0.25
    STORES_PER_INSTR = 0.10

    def __init__(self, rng: np.random.Generator, stack_base: int = 0xF000_0000) -> None:
        self.rng = rng
        self.refs: list[int] = []
        self.instructions = 0
        self.stack_base = stack_base
        self._frame_cursor = 0
        self._code_prev = None
        # The burst step, chosen once: the compiled one when it can
        # serve.  Imported here, so importing workloads loads no kernel.
        from repro.memsys.fastpath_coherence import burst_frame

        self._burst_frame = burst_frame(rng)

    def set_stack(self, stack_base: int) -> None:
        """Switch the active thread context (its stack frames)."""
        self.stack_base = stack_base
        self._code_prev = None  # a context switch breaks fetch locality

    # -- instruction side ---------------------------------------------------

    def code_burst(self, layout: CodeLayout, mean_burst_instr: int = 100) -> None:
        """Emit one hotness-weighted fetch burst plus its local data traffic.

        The burst's loads/stores land in the active thread's stack
        window — hot, private lines that mostly hit in the L1, exactly
        like real locals — so per-1000-instruction miss rates are
        denominated against a realistic reference mix.  The compiled
        step emits exactly what :meth:`reference_burst` emits.
        """
        frame = self._burst_frame
        if frame is None or not self._kernel_burst(frame, layout, mean_burst_instr):
            self.reference_burst(layout, mean_burst_instr)

    def reference_burst(self, layout: CodeLayout, mean_burst_instr: int = 100) -> None:
        """:meth:`code_burst` in Python: :meth:`CodeLayout.burst`, then
        the burst's loads and stores."""
        refs, n_instr, self._code_prev = layout.burst(
            self.rng, mean_burst_instr, prev=self._code_prev
        )
        self.refs.extend(refs)
        self.instructions += n_instr
        n_loads = int(n_instr * self.LOADS_PER_INSTR)
        n_stores = int(n_instr * self.STORES_PER_INSTR)
        # Locals cycle within a ~2 KB window of live frames: the loads,
        # then the stores, each at a random 8-byte slot k.  Address
        # window + 8k encodes as encode_ref(window) + 32k, and k >= 0,
        # so the one encode_ref checks every address.
        window = self.stack_base + (self._frame_cursor % 4) * 512
        self._frame_cursor += 1
        slots = self.rng.integers(0, 64, size=n_loads + n_stores)
        local = encode_ref(window, LOAD) + 32 * slots
        local[n_loads:] += STORE - LOAD
        self.refs.extend(local.tolist())

    def _kernel_burst(self, frame: BurstFrame, layout: CodeLayout, mean: int) -> bool:
        """:meth:`reference_burst` in one call of the compiled step.

        Returns False, before any draw, for what only the reference
        serves: a layout or stack window beyond the packed encoding, a
        mean beyond the output buffer's bound, a continuation in
        another layout's segment.  The loop window comes back once and
        is repeated here, so repeated fetches share one int object.
        """
        table = layout.burst_table
        if table is None:
            return False
        prev = self._code_prev
        if prev is None:
            prev_seg, prev_pos = -1, 0
        else:
            prev_seg = table.index.get(prev[0])
            if prev_seg is None:
                return False
            prev_pos = prev[1]
        window = self.stack_base + (self._frame_cursor % 4) * 512
        burst = frame.burst(table.address, prev_seg, prev_pos, window, mean)
        if burst is None:
            return False
        n_instr, seg, end, fetches, loops, tail, data, stack_error = burst
        refs = self.refs
        refs += fetches * loops
        refs += fetches[:tail]
        self.instructions += n_instr
        self._code_prev = (layout.segments[seg], end)
        self._frame_cursor += 1
        if stack_error is not None:
            raise stack_error
        refs += data
        return True

    def code_bursts(
        self, layout: CodeLayout, n: int, mean_burst_instr: int = 100
    ) -> None:
        for _ in range(n):
            self.code_burst(layout, mean_burst_instr)

    # -- data side ------------------------------------------------------------

    def load(self, addr: int) -> None:
        self.refs.append(encode_ref(addr, LOAD))

    def store(self, addr: int) -> None:
        self.refs.append(encode_ref(addr, STORE))

    def rmw(self, addr: int) -> None:
        """Read-modify-write (lock word, counter): load then store."""
        self.refs.append(encode_ref(addr, LOAD))
        self.refs.append(encode_ref(addr, STORE))

    def scan(self, base: int, nbytes: int, stride: int = 64, write: bool = False) -> None:
        """Sequential sweep over a buffer (marshalling, copying)."""
        kind = STORE if write else LOAD
        for offset in range(0, nbytes, stride):
            self.refs.append(encode_ref(base + offset, kind))

    def object_access(self, addr: int, n_fields: int = 2, write_fields: int = 0) -> None:
        """Touch an object: read a few fields, optionally write some.

        Field offsets land within the object's first 64 bytes, so one
        object access typically costs one cache line.
        """
        for i in range(n_fields):
            self.refs.append(encode_ref(addr + 8 * (i + 1), LOAD))
        for i in range(write_fields):
            self.refs.append(encode_ref(addr + 8 * (i + 1), STORE))

    def tree_descent(
        self,
        tree: ObjectTree,
        skew: float = 0.0,
        write_leaf: bool = False,
        hot_fraction: float | None = None,
        hot_prob: float = 0.9,
    ) -> int:
        """Descend a database object tree to a leaf; returns the leaf address.

        Interior nodes are read (two fields per node: key compare +
        child pointer); the leaf is read and optionally updated.  When
        ``hot_fraction`` is given, leaves come from the tree's hot
        working set with probability ``hot_prob`` (see
        :meth:`ObjectTree.hot_leaf`); otherwise selection follows
        ``skew``.
        """
        if hot_fraction is not None:
            leaf_index = tree.hot_leaf(self.rng, hot_fraction, hot_prob)
        else:
            leaf_index = tree.random_leaf(self.rng, skew=skew)
        path = tree.path_to_leaf(leaf_index)
        for node_addr in path[:-1]:
            self.refs.append(encode_ref(node_addr + 8, LOAD))
            self.refs.append(encode_ref(node_addr + 16, LOAD))
        leaf = path[-1]
        self.refs.append(encode_ref(leaf + 8, LOAD))
        self.refs.append(encode_ref(leaf + 24, LOAD))
        if write_leaf:
            self.refs.append(encode_ref(leaf + 16, STORE))
        return leaf

    def allocate(self, cursor: AllocationCursor, nbytes: int, stride: int = 64) -> int:
        """Bump-allocate and initialize ``nbytes``; returns the address.

        Initializing stores touch every ``stride`` bytes — the
        compulsory-miss "allocation wall" of Java workloads.
        """
        addr = cursor.allocate(nbytes)
        for offset in range(0, nbytes, stride):
            self.refs.append(encode_ref(addr + offset, STORE))
        return addr

    def stack_work(self, stack_base: int, frames: int = 2) -> None:
        """Hot, private stack traffic for a call subtree."""
        for frame in range(frames):
            base = stack_base + frame * 96
            self.refs.append(encode_ref(base, STORE))
            self.refs.append(encode_ref(base + 32, STORE))
            self.refs.append(encode_ref(base, LOAD))


def burst_mode() -> str:
    """Which step draws this process's code bursts: ``kernel`` or
    ``reference``.

    Called once per generated trace (``TraceSpec.generate``): a trace
    whose bursts ran in the reference although the fast path is on is
    counted under ``BURST_FALLBACK_COUNTER``, by reason.  Under
    ``JMMW_FASTPATH=0`` the kernel is not asked, and nothing is counted.
    """
    if not fastpath_enabled():
        return "reference"
    from repro.memsys.fastpath_coherence import BURST_FALLBACK_COUNTER, burst_step_declines

    reason = burst_step_declines()
    if reason is None:
        return "kernel"
    obs.incr(f"{BURST_FALLBACK_COUNTER}/{reason}")
    return "reference"


def code_sweep_refs(layout: CodeLayout) -> list[int]:
    """Fetch every line of every code region once (pre-warm preamble).

    The paper measures steady-state intervals of long-running
    benchmarks, where all hot code has long been resident in the L2.
    Workloads prepend this sweep (plus hot-data sweeps) to each
    processor's trace; it is consumed inside the warmup window, so
    measured rates never charge first-touch misses on code that would
    be warm in any real run.
    """
    refs: list[int] = []
    for segment in layout.segments:
        addrs = segment.base + np.arange(0, segment.code_bytes, 32)
        refs.extend(encode_refs(addrs, IFETCH).tolist())
    return refs


def region_sweep_refs(base: int, nbytes: int, stride: int = 64) -> list[int]:
    """Read every line of a data region once (pre-warm preamble)."""
    return encode_refs(base + np.arange(0, nbytes, stride), LOAD).tolist()


@runtime_checkable
class Workload(Protocol):
    """What the characterization framework needs from a workload."""

    name: str

    def generate(
        self, n_procs: int, sim: SimConfig, rng_factory: RngFactory
    ) -> TraceBundle:
        """Reference streams for ``n_procs`` application processors."""
        ...

    def generate_chunks(
        self, n_procs: int, sim: SimConfig, rng_factory: RngFactory, chunk_refs: int
    ) -> ChunkedTrace:
        """The same streams as :meth:`generate`, as lazy chunk iterators.

        Concatenating processor ``cpu``'s chunks must reproduce
        ``generate(...).per_cpu[cpu]`` bit-for-bit.  The chunks feed
        :func:`repro.memsys.stream.simulate_miss_curve_stream` in
        O(chunk) memory; hierarchy replay takes :meth:`generate`'s
        materialized traces.
        """
        ...

    def live_memory_mb(self, scale: int) -> float:
        """Live heap (MB) after GC at benchmark scale ``scale`` (Figure 11)."""
        ...


#: Kernel text and shared kernel data used by the background OS stream.
_KERNEL_CODE_BASE = 0x0100_0000
_KERNEL_DATA_BASE = 0x0180_0000


def os_background_trace(
    rng: np.random.Generator, n_refs: int, shared_lines: list[int] | None = None
) -> list[int]:
    """A light operating-system reference stream.

    The paper observes cache-to-cache transfers even in 1-processor
    runs because Solaris keeps running on processors outside the
    processor set and snoops on the bound processor (Section 4.3).
    This stream models that background: kernel code fetches, kernel
    data, and occasional touches of lines the application also uses
    (run queues, network buffers) passed in as ``shared_lines``.
    """
    if n_refs < 0:
        raise WorkloadError("n_refs must be non-negative")
    refs: list[int] = []
    shared = shared_lines or []
    while len(refs) < n_refs:
        # A short kernel code run.
        base = _KERNEL_CODE_BASE + int(rng.integers(0, 2048)) * 32
        for i in range(8):
            refs.append(encode_ref(base + i * 32, IFETCH))
        # Kernel data touches.
        for _ in range(3):
            addr = _KERNEL_DATA_BASE + int(rng.integers(0, 4096)) * 64
            refs.append(encode_ref(addr, LOAD))
        if shared and float(rng.random()) < 0.3:
            addr = shared[int(rng.integers(0, len(shared)))]
            refs.append(encode_ref(addr, LOAD))
            refs.append(encode_ref(addr, STORE))
    return refs[:n_refs]
