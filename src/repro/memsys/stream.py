"""Chunked trace streams: constant-memory generation and replay.

Traces move through replay as per-processor iterators of fixed-size
``uint64`` chunks, so scenario size is not bounded by memory and
replay can start before generation finishes:

- :class:`TraceStream` — per-processor iterators of fixed-size
  ``uint64`` chunks plus *declared* lengths, built from a materialized
  bundle (:meth:`TraceStream.from_bundle`), from a workload's
  ``generate_chunks`` output, or from raw iterators;
- :func:`run_trace_stream` — the windowed round-robin scheduler behind
  every :meth:`repro.memsys.hierarchy.MemoryHierarchy.run_trace` (a
  materialized trace is replayed as a one-chunk stream):
  cache/bus/classifier state is carried across chunk boundaries either
  by the persistent compiled-kernel machine
  (:class:`repro.memsys.fastpath_coherence.KernelSession`) or simply by
  the live Python hierarchy;
- :func:`simulate_miss_curve_stream` — the miss-curve sweep, the one
  path behind :func:`repro.memsys.multisim.simulate_miss_curve` (a
  materialized trace is replayed as a one-chunk stream): every
  geometry's cache lives across chunk boundaries, in the compiled
  sweep step (:class:`repro.memsys.fastpath_coherence.SweepSession`)
  or in the scalar reference
  (:class:`repro.memsys.multisim.MultiConfigSimulator`), so a boundary
  has nothing to carry.

Results do not depend on where chunk boundaries fall — enforced by
``tests/memsys/test_stream_parity.py`` and by the multi-chunk replays
in the hierarchy and miss-curve rows of
:data:`repro.obs.diffcheck.FIGURE_DIFF_CONFIGS`.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from repro import obs as _obs
from repro.errors import ConfigError, SimulationError
from repro.memsys.config import CacheConfig
from repro.memsys.fastpath import fastpath_enabled
from repro.memsys.multisim import MissCurvePoint, MultiConfigSimulator

#: Chunk size: 1 M references (8 MB per chunk).
DEFAULT_CHUNK_REFS = 1_000_000


# -- chunk plumbing ----------------------------------------------------------


class ChunkCursor:
    """Buffered reader over one processor's chunk iterator.

    ``take(n)`` returns exactly ``n`` references, buffering partial
    chunks across calls; running short of the declared length raises
    :class:`~repro.errors.SimulationError` (a producer bug must never
    silently truncate a replay).
    """

    def __init__(self, chunks: Iterable[np.ndarray]) -> None:
        self._chunks = iter(chunks)
        self._parts: list[np.ndarray] = []
        self._avail = 0

    def take(self, n: int) -> np.ndarray:
        if n < 0:
            raise ConfigError("cannot take a negative number of references")
        while self._avail < n:
            try:
                chunk = next(self._chunks)
            except StopIteration:
                raise SimulationError(
                    f"chunk stream ended early: needed {n} more references, "
                    f"only {self._avail} buffered (producer under-delivered "
                    "its declared length)"
                ) from None
            arr = np.asarray(chunk, dtype=np.uint64)
            if arr.ndim != 1:
                raise ConfigError(
                    f"chunks must be one-dimensional, got shape {arr.shape}"
                )
            if arr.size:
                self._parts.append(arr)
                self._avail += int(arr.size)
        if n == 0:
            return np.empty(0, dtype=np.uint64)
        parts = []
        need = n
        while need:
            head = self._parts[0]
            if head.size <= need:
                parts.append(head)
                self._parts.pop(0)
                need -= int(head.size)
            else:
                parts.append(head[:need])
                self._parts[0] = head[need:]
                need = 0
        self._avail -= n
        return parts[0] if len(parts) == 1 else np.concatenate(parts)


class TraceStream:
    """Per-processor chunked reference streams with declared lengths.

    The declared ``lengths`` stand in for ``len(trace)`` everywhere a
    replay needs it up front (warmup splits, round-robin drop-out), so
    replay schedules are computed before a single chunk is generated.
    Streams are one-shot: :meth:`cursors` (or :meth:`chunks_merged`)
    may be consumed once.
    """

    def __init__(
        self,
        lengths: Sequence[int],
        per_cpu_chunks: Sequence[Iterable[np.ndarray]],
        workload: str = "",
    ) -> None:
        self.lengths = [int(n) for n in lengths]
        if any(n < 0 for n in self.lengths):
            raise ConfigError("declared lengths must be non-negative")
        self._chunks = list(per_cpu_chunks)
        if len(self._chunks) != len(self.lengths):
            raise ConfigError(
                f"{len(self.lengths)} declared lengths but "
                f"{len(self._chunks)} chunk iterators"
            )
        self.workload = workload
        self._consumed = False

    @property
    def n_procs(self) -> int:
        return len(self.lengths)

    @property
    def total_refs(self) -> int:
        return sum(self.lengths)

    def _claim(self) -> None:
        if self._consumed:
            raise SimulationError(
                "trace stream already consumed (streams are one-shot; "
                "build a fresh one to replay again)"
            )
        self._consumed = True

    def cursors(self) -> list[ChunkCursor]:
        """One buffered cursor per processor (consumes the stream)."""
        self._claim()
        return [ChunkCursor(chunks) for chunks in self._chunks]

    def chunks_merged(self) -> Iterator[np.ndarray]:
        """All processors' chunks in processor order (consumes the stream).

        Concatenating the yielded chunks reproduces
        ``TraceBundle.merged()`` exactly.
        """
        self._claim()
        for chunks in self._chunks:
            yield from chunks

    @classmethod
    def from_arrays(
        cls,
        per_cpu: Sequence[np.ndarray],
        chunk_refs: int = DEFAULT_CHUNK_REFS,
        workload: str = "",
    ) -> "TraceStream":
        """Chunked views over already-materialized per-CPU arrays."""
        if chunk_refs < 1:
            raise ConfigError("chunk_refs must be >= 1")
        arrays = [np.asarray(t, dtype=np.uint64) for t in per_cpu]

        def views(arr: np.ndarray) -> Iterator[np.ndarray]:
            for start in range(0, int(arr.size), chunk_refs):
                yield arr[start : start + chunk_refs]

        return cls(
            [int(a.size) for a in arrays],
            [views(a) for a in arrays],
            workload=workload,
        )

    @classmethod
    def from_bundle(
        cls, bundle, chunk_refs: int = DEFAULT_CHUNK_REFS
    ) -> "TraceStream":
        """Chunked views over a :class:`~repro.workloads.base.TraceBundle`."""
        return cls.from_arrays(
            bundle.per_cpu, chunk_refs=chunk_refs, workload=bundle.workload
        )


# -- streaming miss curves ---------------------------------------------------


def simulate_miss_curve_stream(
    chunks: Iterable[np.ndarray],
    total_refs: int,
    sizes: list[int],
    kind: str,
    assoc: int = 4,
    block: int = 64,
    warmup_fraction: float = 0.2,
    fastpath: bool | None = None,
) -> list[MissCurvePoint]:
    """Miss rate (MPKI) at each cache size, from one chunked trace.

    ``chunks`` yields the trace in order (e.g.
    :meth:`TraceStream.chunks_merged`, or a single array);
    ``total_refs`` is the declared length, which places the warmup
    split.  With ``fastpath`` on (the default, ``None``, follows
    :func:`repro.memsys.fastpath.fastpath_enabled`) the compiled step
    (:class:`~repro.memsys.fastpath_coherence.SweepSession`) is asked
    once, before any chunk is consumed; ``False``, or a decline, runs
    the scalar reference
    :class:`~repro.memsys.multisim.MultiConfigSimulator`.  Both keep
    their caches across chunks and give bit-identical points at any
    chunking.
    """
    if not sizes:
        raise ConfigError("need at least one cache config")
    if kind not in ("instr", "data"):
        raise ConfigError(f"kind must be 'instr' or 'data', got {kind!r}")
    if not 0.0 <= warmup_fraction < 1.0:
        raise ConfigError("warmup_fraction must be in [0, 1)")
    configs = [
        CacheConfig(size=s, assoc=assoc, block=block, name=f"{kind}-{s}")
        for s in sizes
    ]
    use_fast = fastpath_enabled() if fastpath is None else fastpath
    split = int(total_refs * warmup_fraction)
    with _obs.span(
        "memsys/miss_curve",
        kind=kind, points=len(sizes), refs=total_refs, fastpath=use_fast,
    ):
        sweep = None
        if use_fast:
            from repro.memsys.fastpath_coherence import SweepSession

            sweep = SweepSession.begin(configs, kind)
        if sweep is None:
            _obs.incr("memsys/multisim/scalar_replays")
            sim = MultiConfigSimulator(
                configs, kind=kind, warmup_fraction=warmup_fraction
            )
            if split == 0:
                sim.mark_warm()
        pos = 0
        for chunk in chunks:
            refs = np.asarray(chunk, dtype=np.uint64)
            n = int(refs.size)
            if pos + n > total_refs:
                raise SimulationError(
                    f"chunk overruns the declared trace length: {pos} + {n} "
                    f"> {total_refs}"
                )
            if sweep is not None:
                sweep.feed(refs, min(max(split - pos, 0), n))
            elif pos < split <= pos + n:
                sim.replay(refs[: split - pos])
                sim.mark_warm()
                sim.replay(refs[split - pos :])
            else:
                sim.replay(refs)
            pos += n
        if pos != total_refs:
            raise SimulationError(
                f"stream incomplete: {pos} of {total_refs} declared "
                "references fed"
            )
        return sweep.points() if sweep is not None else sim.results()


# -- hierarchy replay --------------------------------------------------------


def run_trace_stream(
    hierarchy,
    stream: TraceStream,
    quantum: int = 64,
    warmup_fraction: float = 0.0,
    fastpath: bool | None = None,
) -> None:
    """Replay a :class:`TraceStream` through a hierarchy, windowed.

    The one hierarchy-replay path:
    :meth:`~repro.memsys.hierarchy.MemoryHierarchy.run_trace` hands
    every replay here, a materialized trace as a one-chunk stream.  The
    round-robin schedule (warmup phases, drop-out of exhausted
    processors) is computed from the declared lengths, and machine
    state is carried across chunk boundaries either by the live
    hierarchy (:func:`_scalar_phase`, the reference) or by the
    persistent compiled-kernel machine
    (:class:`~repro.memsys.fastpath_coherence.KernelSession`, driven by
    :func:`~repro.memsys.fastpath_coherence.run_trace_kernel`).

    The kernel is asked only with ``fastpath`` on and no invariant
    checker attached; :meth:`KernelSession.begin` accepts or declines
    (counting the reason), and a decline runs the scalar phases, which
    produce the identical state.  Once the kernel has accepted, a
    failure inside it raises :class:`~repro.errors.SimulationError`:
    chunks are one-shot, so there is nothing left to replay scalar.
    With a checker attached, the full check runs after every phase.
    """
    from repro.memsys import fastpath_coherence as _fc

    if stream.n_procs != hierarchy.machine.n_procs:
        raise ConfigError(
            f"expected {hierarchy.machine.n_procs} traces, got {stream.n_procs}"
        )
    if quantum <= 0:
        raise ConfigError("quantum must be positive")
    if not 0.0 <= warmup_fraction < 1.0:
        raise ConfigError("warmup_fraction must be in [0, 1)")
    if fastpath is None:
        fastpath = fastpath_enabled()
    cursors = stream.cursors()
    lengths = stream.lengths
    if warmup_fraction > 0.0:
        splits = [int(n * warmup_fraction) for n in lengths]
        phases = [splits, [n - s for n, s in zip(lengths, splits)]]
    else:
        phases = [lengths]
    session = None
    if fastpath and hierarchy.checker is None:
        session = _fc.KernelSession.begin(hierarchy)

    def bus_counters() -> list[int]:
        if session is not None:
            return session.bus_counters()
        stats = hierarchy.bus.stats
        return [getattr(stats, name) for name in _fc.BUS_FIELDS]

    try:
        for index, budgets in enumerate(phases):
            if index > 0:
                if session is not None:
                    session.reset_stats()
                else:
                    hierarchy.reset_stats()
            refs = sum(budgets)
            before = bus_counters()
            with _obs.span("memsys/replay", refs=refs, procs=stream.n_procs):
                if session is not None:
                    _fc.run_trace_kernel(session, cursors, budgets, quantum)
                else:
                    _scalar_phase(hierarchy, cursors, budgets, quantum)
            for name, b, a in zip(_fc.BUS_FIELDS, before, bus_counters()):
                if a != b:
                    _obs.incr(f"memsys/bus/{name}", a - b)
            _obs.incr("memsys/replay/refs", refs)
            if hierarchy.checker is not None:
                # One guaranteed full check per phase, so corruption
                # that slipped between samples still fails the run.
                hierarchy.checker.check()
        if session is not None:
            session.finish()
            session = None
    finally:
        if session is not None:
            session.abort()


def _scalar_phase(hierarchy, cursors, budgets, quantum: int) -> None:
    """One warmup/measurement phase through the scalar access loop.

    Each live processor plays up to a quantum per turn and drops out
    when its budget is spent, in processor order.
    """
    access = hierarchy.access
    remaining = list(budgets)
    live = [cpu for cpu, n in enumerate(remaining) if n > 0]
    while live:
        next_live = []
        for cpu in live:
            n = min(quantum, remaining[cpu])
            for ref in cursors[cpu].take(n).tolist():
                access(cpu, ref)
            remaining[cpu] -= n
            if remaining[cpu] > 0:
                next_live.append(cpu)
        live = next_live
