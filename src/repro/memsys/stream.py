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
- :class:`MissCurveAccumulator` — the vectorized miss-curve sweep, and
  the only one: a materialized trace is replayed as a one-chunk stream
  (:func:`repro.memsys.multisim.simulate_miss_curve`).  When more
  references follow a chunk, every geometry's resident blocks are
  extracted as one recency-ordered prefix per block size
  (:func:`lru_carried_state`) and replayed in front of the next chunk,
  which reproduces every per-access miss flag exactly (Mattson
  inclusion: a block's hit/miss depends only on the distinct same-set
  blocks since its previous access, and the carried prefix preserves
  both membership and recency order);
- :class:`StackAccumulator` — the mergeable stack-distance
  formulation: the carried state is the full LRU stack (distinct
  blocks in last-access order, O(footprint) not O(refs)), and
  per-chunk histograms merge by addition into the exact one-shot
  histogram.

Results do not depend on where chunk boundaries fall — enforced by
``tests/memsys/test_stream_parity.py`` and by the multi-chunk replays
in every row of :data:`repro.obs.diffcheck.FIGURE_DIFF_CONFIGS`.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from repro import obs as _obs
from repro.errors import ConfigError, SimulationError
from repro.memsys.block import IFETCH, INSTRUCTIONS_PER_IFETCH
from repro.memsys.config import CacheConfig
from repro.memsys.fastpath import (
    _previous_occurrence,
    fastpath_enabled,
    lru_miss_mask,
    stack_distances,
)
from repro.memsys.multisim import MissCurvePoint, MultiConfigSimulator

#: Chunk size: 1 M references (8 MB per chunk).
DEFAULT_CHUNK_REFS = 1_000_000


#: Seeded-defect knob (tests only): when set, the streaming
#: accumulators discard their carried state at every chunk boundary.
#: The parity suite flips this to prove it fails loudly on exactly the
#: class of bug the carried-state contract exists to prevent.
_drop_carried_state = False


def set_carried_state_defect(enabled: bool) -> None:
    """Enable/disable the carried-state-drop defect (tests only)."""
    global _drop_carried_state
    _drop_carried_state = bool(enabled)


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


# -- carried LRU state -------------------------------------------------------


def lru_carried_state(
    blocks: np.ndarray,
    set_mask,
    assoc,
    prefix: np.ndarray | None = None,
) -> np.ndarray:
    """Exact post-replay cache contents, as a synthetic access prefix.

    ``set_mask`` and ``assoc`` describe one true-LRU geometry, or are
    equal-length sequences describing several geometries that share a
    block size.  After replaying ``prefix`` (the previous carried
    state) followed by ``blocks``, a geometry's resident blocks are,
    per set, the ``assoc`` most recently used distinct blocks; the
    result holds every geometry's resident blocks, each once, from
    least to most recently used.

    Replaying the result in front of the next chunk reconstructs each
    geometry's exact per-set membership *and* recency order, so
    :func:`repro.memsys.fastpath.lru_miss_mask` over
    ``concat(carried, chunk)`` produces the chunk's exact miss flags.
    A block kept only for another geometry is older than every block
    resident in its set here, so it falls out before the chunk starts.
    """
    masks = np.atleast_1d(np.asarray(set_mask, dtype=np.uint64))
    ways = np.atleast_1d(np.asarray(assoc, dtype=np.int64))
    if masks.shape != ways.shape or masks.ndim != 1:
        raise ConfigError("set_mask and assoc must describe the same geometries")
    if (ways <= 0).any():
        raise ConfigError(f"assoc must be positive, got {assoc}")
    blocks = np.asarray(blocks, dtype=np.uint64)
    if prefix is not None and prefix.size:
        seq = np.concatenate([np.asarray(prefix, dtype=np.uint64), blocks])
    else:
        seq = blocks
    if seq.size == 0:
        return np.empty(0, dtype=np.uint64)
    # Distinct blocks, most-recent-first: first occurrences in the
    # reversed sequence are last occurrences in the original.
    rev = seq[::-1]
    _, first = np.unique(rev, return_index=True)
    recent = rev[np.sort(first)]
    k = int(recent.size)
    arange = np.arange(k, dtype=np.int64)
    resident = np.zeros(k, dtype=bool)
    new_group = np.empty(k, dtype=bool)
    new_group[0] = True
    for mask, way in zip(masks, ways.tolist()):
        sets = recent & mask
        order = np.argsort(sets, kind="stable")  # per set, still recency order
        sorted_sets = sets[order]
        new_group[1:] = sorted_sets[1:] != sorted_sets[:-1]
        group_start = np.maximum.accumulate(np.where(new_group, arange, 0))
        rank = arange - group_start  # 0 = most recently used within its set
        resident[order[rank < way]] = True
    return recent[resident][::-1]


# -- streaming miss curves ---------------------------------------------------


class MissCurveAccumulator:
    """The vectorized miss-curve sweep over a chunked trace.

    Feed packed-``uint64`` chunks in trace order; :meth:`points`
    returns miss-curve points bit-identical to the scalar reference
    (:class:`repro.memsys.multisim.MultiConfigSimulator`).  Warm and
    measured accounting follows the global warmup split computed from
    the *declared* total, so the split lands on the same reference
    regardless of chunking.

    Per chunk, each block size gets one replay sequence: the carried
    prefix (if any) then the chunk's blocks, with same-block runs
    collapsed (a repeat of the block just accessed hits at any
    associativity and does not change any other access's
    distinct-block window).  One reuse analysis of that sequence is
    shared by every geometry of the block size.  The carried prefix is
    built only while the declared length says more references follow,
    so a one-chunk stream never pays for it.
    """

    def __init__(
        self,
        configs: list[CacheConfig],
        kind: str,
        total_refs: int,
        warmup_fraction: float = 0.0,
    ) -> None:
        if kind not in ("instr", "data"):
            raise ConfigError(f"kind must be 'instr' or 'data', got {kind!r}")
        if not 0.0 <= warmup_fraction < 1.0:
            raise ConfigError("warmup_fraction must be in [0, 1)")
        if total_refs < 0:
            raise ConfigError("total_refs must be non-negative")
        self.configs = list(configs)
        self.kind = kind
        self.total_refs = int(total_refs)
        self.split = int(total_refs * warmup_fraction)
        self.pos = 0
        self._ifetch_total = 0
        self._ifetch_warm = 0
        # accesses, misses, warm_accesses, warm_misses per config.
        self._acc = [[0, 0, 0, 0] for _ in self.configs]
        self._groups: dict[int, list[int]] = {}
        for i, cfg in enumerate(self.configs):
            self._groups.setdefault(cfg.block_bits, []).append(i)
        # One carried prefix per block size (see lru_carried_state).
        self._carried: dict[int, np.ndarray] = {}

    def feed(self, chunk: np.ndarray) -> None:
        refs = np.asarray(chunk, dtype=np.uint64)
        n = int(refs.size)
        if n == 0:
            return
        if self.pos + n > self.total_refs:
            raise SimulationError(
                f"chunk overruns the declared trace length: {self.pos} + {n} "
                f"> {self.total_refs}"
            )
        is_ifetch = (refs & np.uint64(0x3)) == IFETCH
        split_local = min(max(self.split - self.pos, 0), n)
        self._ifetch_total += int(np.count_nonzero(is_ifetch))
        if split_local:
            self._ifetch_warm += int(np.count_nonzero(is_ifetch[:split_local]))
        mask = is_ifetch if self.kind == "instr" else ~is_ifetch
        addrs = (refs >> np.uint64(2))[mask]
        n_class = int(addrs.size)
        class_before = int(np.count_nonzero(mask[:split_local]))
        self.pos += n
        more = self.pos < self.total_refs
        for block_bits, indices in self._groups.items():
            blocks = addrs >> np.uint64(block_bits)
            prefix = self._carried.get(block_bits)
            if prefix is not None and prefix.size:
                seq = np.concatenate([prefix, blocks])
                skip = int(prefix.size)
            else:
                seq = blocks
                skip = 0
            # The prefix holds distinct blocks, so it survives the
            # collapse whole; the chunk's first access goes only if it
            # repeats the prefix's most recent block.
            keep = np.empty(seq.size, dtype=bool)
            if seq.size:
                keep[0] = True
                np.not_equal(seq[1:], seq[:-1], out=keep[1:])
            kept = seq[keep]
            kept_before = int(np.count_nonzero(keep[skip : skip + class_before]))
            prev = _previous_occurrence(kept)
            for i in indices:
                cfg = self.configs[i]
                miss = lru_miss_mask(kept, cfg.set_mask, cfg.assoc, prev=prev)[skip:]
                acc = self._acc[i]
                acc[0] += n_class
                acc[1] += int(np.count_nonzero(miss))
                acc[2] += class_before
                acc[3] += int(np.count_nonzero(miss[:kept_before]))
            if more and not _drop_carried_state:
                self._carried[block_bits] = lru_carried_state(
                    kept,
                    [self.configs[i].set_mask for i in indices],
                    [self.configs[i].assoc for i in indices],
                )

    def points(self) -> list[MissCurvePoint]:
        """Post-warmup miss-curve points; the stream must be complete."""
        if self.pos != self.total_refs:
            raise SimulationError(
                f"stream incomplete: {self.pos} of {self.total_refs} declared "
                "references fed"
            )
        instr = (self._ifetch_total - self._ifetch_warm) * INSTRUCTIONS_PER_IFETCH
        points = []
        for cfg, (accesses, misses, warm_acc, warm_miss) in zip(
            self.configs, self._acc
        ):
            post_accesses = accesses - warm_acc
            post_misses = misses - warm_miss
            mpki = 1000.0 * post_misses / instr if instr else 0.0
            points.append(
                MissCurvePoint(
                    size=cfg.size,
                    accesses=post_accesses,
                    misses=post_misses,
                    mpki=mpki,
                )
            )
        return points


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
    split.  ``fastpath`` selects the vectorized
    :class:`MissCurveAccumulator`; the default (``None``) follows
    :func:`repro.memsys.fastpath.fastpath_enabled`, and ``False`` runs
    the scalar reference :class:`~repro.memsys.multisim.MultiConfigSimulator`
    (already incremental; the split chunk is cut at the exact
    boundary).  Both paths give bit-identical points at any chunking.
    """
    if not sizes:
        raise ConfigError("need at least one cache config")
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
        if use_fast:
            acc = MissCurveAccumulator(
                configs, kind, total_refs, warmup_fraction=warmup_fraction
            )
            for chunk in chunks:
                acc.feed(chunk)
            return acc.points()
        _obs.incr("memsys/multisim/scalar_replays")
        sim = MultiConfigSimulator(
            configs, kind=kind, warmup_fraction=warmup_fraction
        )
        pos = 0
        if split == 0:
            sim.mark_warm()
        for chunk in chunks:
            arr = np.asarray(chunk, dtype=np.uint64)
            if pos < split <= pos + int(arr.size):
                cut = split - pos
                sim.replay(arr[:cut])
                sim.mark_warm()
                sim.replay(arr[cut:])
            else:
                sim.replay(arr)
            pos += int(arr.size)
        if pos != total_refs:
            raise SimulationError(
                f"stream incomplete: {pos} of {total_refs} declared "
                "references fed"
            )
        return sim.results()


# -- mergeable stack distances -----------------------------------------------


class StackAccumulator:
    """Mergeable LRU stack-distance histogram over chunked block streams.

    The carried state is the full LRU stack — every distinct block seen
    so far, ordered by last access (oldest first).  Prepending it to
    the next chunk makes every in-chunk distance exact: the distinct
    blocks between an access and its previous occurrence are precisely
    the blocks whose last occurrence falls in that window, and the
    stack preserves last-occurrence order.  Memory is O(footprint),
    independent of trace length, and per-chunk histograms merge by
    addition into exactly the one-shot histogram.
    """

    #: Histogram bucket for cold (first-touch) accesses.
    COLD = -1

    def __init__(self) -> None:
        self._stack = np.empty(0, dtype=np.int64)
        self._hist: dict[int, int] = {}
        self.n_accesses = 0

    def feed(self, blocks) -> None:
        arr = np.asarray(blocks, dtype=np.int64)
        if arr.ndim != 1:
            raise ConfigError(f"blocks must be one-dimensional, got {arr.shape}")
        if arr.size == 0:
            return
        self.n_accesses += int(arr.size)
        prefix = self._stack
        if _drop_carried_state:
            prefix = prefix[:0]
        seq = np.concatenate([prefix, arr]) if prefix.size else arr
        dist = stack_distances(seq)[prefix.size :]
        values, counts = np.unique(dist, return_counts=True)
        for value, count in zip(values.tolist(), counts.tolist()):
            self._hist[value] = self._hist.get(value, 0) + count
        rev = seq[::-1]
        _, first = np.unique(rev, return_index=True)
        self._stack = rev[np.sort(first)][::-1]  # oldest -> newest

    def histogram(self) -> dict[int, int]:
        """``{distance: count}``; COLD (-1) counts first touches."""
        return dict(self._hist)


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
