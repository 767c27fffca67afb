"""Vectorized trace replay: numpy-native buffers and exact LRU kernels.

The scalar simulators (:mod:`repro.memsys.multisim`,
:mod:`repro.memsys.stackdist`) walk traces one reference at a time in
Python.  That loop dominates the Figure 12/13 cache-size sweeps and the
working-set profiles once traces reach hundreds of thousands of
references.  This module replays the *same* trace encoding —
``(byte_address << 2) | kind`` packed in ``uint64`` arrays, exactly as
:mod:`repro.memsys.block` defines it — through numpy kernels that are
bit-identical to the scalar implementations (enforced by
``tests/memsys/test_fastpath.py``).

Two kernels:

``lru_miss_mask``
    Exact per-access hit/miss for a set-associative true-LRU cache.
    Per-set LRU obeys Mattson's inclusion property, so an access misses
    iff at least ``assoc`` *distinct* blocks of the same set were
    touched since the previous access to its block.  The kernel tests
    that condition without per-reference Python: it computes, for every
    access, the position of the ``assoc``-th most recently used
    distinct block of its set (``M_A`` below) through a vectorized
    recurrence, and compares it against the access's own previous
    occurrence.  Set storage is a handful of flat position arrays — no
    dicts, no per-set objects.

``stack_distances``
    Full LRU stack distances (the profiler's histogram input) via an
    offline reformulation: the distance of an access equals its reuse
    gap minus the number of consecutive-occurrence intervals nested
    inside it, and the nested-interval counts are per-element inversion
    counts, computed by a vectorized bottom-up mergesort.

Both kernels are O(n log n) in numpy primitives.  The Figure 12/13
sweep built on ``lru_miss_mask`` is
:class:`repro.memsys.stream.MissCurveAccumulator`; the ``miss-curve``
gate of ``jmmw bench`` (:mod:`repro.obs.bench`) holds it at >= 3x over
the scalar path on a Figure-12-sized trace.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from repro import obs as _obs
from repro.errors import ConfigError
from repro.memsys.block import IFETCH, INSTRUCTIONS_PER_IFETCH

#: Environment switch: set to ``0``/``false`` to make every default-path
#: consumer (figure drivers, profiler) fall back to the scalar reference
#: implementation.  The harness cache key records the resolved value.
FASTPATH_ENV = "JMMW_FASTPATH"


def fastpath_enabled() -> bool:
    """Whether default-path consumers use the vectorized kernels."""
    return os.environ.get(FASTPATH_ENV, "1").lower() not in ("0", "false", "no")


def as_ref_array(trace) -> np.ndarray:
    """View/convert an encoded reference trace as a ``uint64`` array."""
    arr = np.asarray(trace, dtype=np.uint64)
    if arr.ndim != 1:
        raise ConfigError(f"trace must be one-dimensional, got shape {arr.shape}")
    return arr


# -- trace classification ------------------------------------------------


@dataclass(frozen=True)
class ClassifiedTrace:
    """One reference class of a trace, pre-split for replay.

    ``addrs`` are byte addresses (``ref >> 2``) of the selected class in
    trace order; ``positions`` are their indices in the original trace
    (needed to place a warmup split); ``ifetch_positions`` counts
    instruction fetches for MPKI denominators.
    """

    kind: str
    addrs: np.ndarray        # uint64 byte addresses, class refs only
    positions: np.ndarray    # int64 original trace indices of class refs
    n_refs: int              # total trace length
    n_ifetch: int            # total instruction fetches in the trace
    ifetch_cumulative: np.ndarray  # int64, ifetch count in trace[:i]

    @property
    def instructions(self) -> int:
        return self.n_ifetch * INSTRUCTIONS_PER_IFETCH

    def instructions_before(self, split: int) -> int:
        """Instructions represented by ``trace[:split]``."""
        if split <= 0:
            return 0
        split = min(split, self.n_refs)
        return int(self.ifetch_cumulative[split - 1]) * INSTRUCTIONS_PER_IFETCH

    def class_count_before(self, split: int) -> int:
        """Number of this class's references in ``trace[:split]``."""
        return int(np.searchsorted(self.positions, split, side="left"))


def classify_trace(trace, kind: str) -> ClassifiedTrace:
    """Split a packed trace into one reference class, vectorized."""
    if kind not in ("instr", "data"):
        raise ConfigError(f"kind must be 'instr' or 'data', got {kind!r}")
    refs = as_ref_array(trace)
    is_ifetch = (refs & np.uint64(0x3)) == IFETCH
    mask = is_ifetch if kind == "instr" else ~is_ifetch
    positions = np.flatnonzero(mask).astype(np.int64)
    return ClassifiedTrace(
        kind=kind,
        addrs=(refs >> np.uint64(2))[mask],
        positions=positions,
        n_refs=int(refs.size),
        n_ifetch=int(np.count_nonzero(is_ifetch)),
        ifetch_cumulative=np.cumsum(is_ifetch, dtype=np.int64),
    )


def block_stream(trace, kind: str, block_bits: int = 6) -> np.ndarray:
    """Block addresses of one reference class, as an ``int64`` array.

    The vectorized version of ``[r >> 2 >> block_bits for r in trace
    if <kind matches>]`` — the common profiler-feeding idiom.
    """
    classified = classify_trace(trace, kind)
    return (classified.addrs >> np.uint64(block_bits)).astype(np.int64)


# -- shared helpers -------------------------------------------------------


def _previous_occurrence(values: np.ndarray) -> np.ndarray:
    """Index of the previous equal element, or -1 (vectorized).

    ``out[i] = max{j < i : values[j] == values[i]}`` — the reuse
    structure both kernels are built on.
    """
    n = values.size
    out = np.full(n, -1, dtype=np.int64)
    if n == 0:
        return out
    order = np.argsort(values, kind="stable")
    sorted_vals = values[order]
    same = sorted_vals[1:] == sorted_vals[:-1]
    out[order[1:][same]] = order[:-1][same]
    return out


# -- kernel 1: exact set-associative LRU ---------------------------------


def _mru_rank_positions(
    f: np.ndarray, psb_star: np.ndarray, level_prev: np.ndarray
) -> np.ndarray:
    """One step of the MRU recurrence: ``M_{r+1}`` from ``M_r``.

    ``M_r[p]`` is the position of the r-th most recently used distinct
    block of p's set, scanning back from p inclusive (-1 if fewer than
    r distinct blocks exist).  ``f[p]`` is the previous same-set access
    with a different block, and ``psb_star[p]`` is the last occurrence
    of ``blocks[p]`` at or before ``f[p]`` (-1 if none).  Scanning back
    from ``p`` sees ``blocks[p]`` first, then the scan from ``q = f[p]``
    with ``blocks[p]``'s own entry deleted.  That entry sits at position
    ``psb_star[p]`` in the scan, so rank r of the filtered scan is rank
    r of the unfiltered one while ``M_r[q]`` is still above it::

        M_{r+1}[p] = M_r[q]      if M_r[q] > psb_star[p]
                   = M_{r+1}[q]  otherwise (entry already skipped)

    The second branch chases strictly decreasing positions, so it
    resolves by pointer-jumping in O(log n) vectorized rounds.
    """
    n = f.size
    res = np.full(n, -1, dtype=np.int64)
    has_q = f >= 0
    q_safe = np.where(has_q, f, 0)
    mrq = np.where(has_q, level_prev[q_safe], -1)
    # mrq == -1 never satisfies this (psb_star >= -1), and then
    # M_{r+1}[p] <= M_r[q] = -1, so res stays -1 without chasing.
    keep = mrq > psb_star
    res[keep] = mrq[keep]
    deferred = ~keep & (mrq >= 0)
    jump = np.where(deferred, f, -1)
    idx = np.flatnonzero(deferred)
    while idx.size:
        target = jump[idx]
        target_deferred = deferred[target]
        done = idx[~target_deferred]
        res[done] = res[jump[done]]
        deferred[done] = False
        idx = idx[target_deferred]
        jump[idx] = jump[jump[idx]]
    return res


def lru_miss_mask(
    blocks: np.ndarray,
    set_mask: int,
    assoc: int,
    prev: np.ndarray | None = None,
) -> np.ndarray:
    """Per-access miss flags for a set-associative true-LRU cache.

    Bit-identical to feeding ``blocks`` one at a time through
    :meth:`repro.memsys.cache.SetAssociativeCache.access` and recording
    the inverted return value.  ``prev`` (previous occurrence of each
    block) can be passed in when already computed.
    """
    _obs.incr("memsys/fastpath/lru_miss_mask")
    blocks = np.asarray(blocks, dtype=np.uint64)
    n = blocks.size
    if n == 0:
        return np.zeros(0, dtype=bool)
    if prev is None:
        prev = _previous_occurrence(blocks)
    cold = prev < 0
    if assoc <= 0:
        raise ConfigError(f"assoc must be positive, got {assoc}")

    set_idx = (blocks & np.uint64(set_mask)).astype(np.int64)
    # Occupancy shortcut: if no set ever holds `assoc` distinct blocks,
    # nothing is ever evicted and only cold accesses miss.
    if np.count_nonzero(cold) and set_mask >= 0:
        occupancy = np.bincount(set_idx[cold])
        if occupancy.max(initial=0) <= assoc:
            return cold.copy()

    order = np.argsort(set_idx, kind="stable")
    inverse = np.empty(n, dtype=np.int64)
    inverse[order] = np.arange(n, dtype=np.int64)

    b = blocks[order]
    group_start = np.empty(n, dtype=bool)
    group_start[0] = True
    sorted_sets = set_idx[order]
    group_start[1:] = sorted_sets[1:] != sorted_sets[:-1]

    # prev same-block occurrence, in sorted coordinates (same block =>
    # same set, and the stable sort preserves time order per set).
    prev_sb = np.where(prev >= 0, inverse[np.where(prev >= 0, prev, 0)], -1)[order]

    # Everything below runs on *runs* — maximal stretches of the same
    # block within a set group.  Accesses past a run's first element
    # are guaranteed hits (their previous occurrence is the position
    # just before them), and the M recurrence for every rank >= 2
    # depends only on the run's start: f and psb_star are constant
    # across the run, so M_{r+1} is run-constant too.  Real traces
    # collapse ~10x here, and the rank recurrence is the hot loop.
    new_run = group_start.copy()
    new_run[1:] |= b[1:] != b[:-1]
    rs = np.flatnonzero(new_run)  # run starts, sorted coordinates
    k = rs.size
    run_last = np.empty(k, dtype=np.int64)
    run_last[:-1] = rs[1:] - 1
    run_last[-1] = n - 1

    # f[j]: the run holding the previous same-set different-block
    # access — simply the preceding run, unless this run opens its set
    # group.  psb_star[j]: last occurrence of run j's block at or
    # before that access, i.e. the same-block predecessor of the run
    # start (positions inside the run all sit after f[j]'s run).
    f = np.where(group_start[rs], -1, np.arange(k, dtype=np.int64) - 1)
    psb_star = prev_sb[rs]
    cold_run = psb_star < 0  # only a run's first access can be cold

    # M_assoc: position of the assoc-th most recent distinct block,
    # evaluated at each run's *last* position (M_1[p] = p).
    level = run_last
    for _ in range(assoc - 1):
        level = _mru_rank_positions(f, psb_star, level)
        if not (level >= 0).any():
            break

    # Run j's first access (non-cold) misses iff the assoc-th most
    # recent distinct block just before it — M_assoc of the previous
    # run — is newer than the access's previous occurrence.
    jm1 = np.maximum(np.arange(k, dtype=np.int64) - 1, 0)
    run_miss = cold_run | (~cold_run & (level[jm1] > psb_star))

    miss_sorted = np.zeros(n, dtype=bool)
    miss_sorted[rs] = run_miss
    miss = np.empty(n, dtype=bool)
    miss[order] = miss_sorted
    return miss


# -- kernel 2: full LRU stack distances ----------------------------------


def _earlier_greater_counts(values: np.ndarray) -> np.ndarray:
    """For each element, how many earlier elements are greater.

    Vectorized bottom-up mergesort: at every level the left run's
    contribution to each right-run element is found with one global
    ``searchsorted`` over per-pair offset keys, and the merge itself is
    two more ``searchsorted`` rank computations.  ``values`` must be
    non-negative and distinct.
    """
    m = values.size
    counts = np.zeros(m, dtype=np.int64)
    if m < 2:
        return counts
    size = 1 << int(m - 1).bit_length()
    # Per-pair key offset; must exceed the value range (+1 for the -1
    # padding) so concatenated per-pair keys stay globally sorted.
    big = np.int64(int(values.max()) + 2)
    vals = np.full(size, -1, dtype=np.int64)
    vals[:m] = values
    orig = np.arange(size, dtype=np.int64)

    run = 1
    while run < size:
        width = 2 * run
        n_pairs = size // width
        v = vals.reshape(n_pairs, width)
        o = orig.reshape(n_pairs, width)
        offs = np.arange(n_pairs, dtype=np.int64) * big
        left_keys = (v[:, :run] + offs[:, None]).ravel()
        right_keys = (v[:, run:] + offs[:, None]).ravel()
        pair_base = np.repeat(np.arange(n_pairs, dtype=np.int64) * run, run)
        # rank of each right element among its pair's left run
        le_left = np.searchsorted(left_keys, right_keys, side="right") - pair_base
        right_orig = o[:, run:].ravel()
        real = right_orig < m
        counts[right_orig[real]] += run - le_left[real]
        # stable merge via rank arithmetic (no per-pair Python loop)
        lt_right = np.searchsorted(right_keys, left_keys, side="left") - pair_base
        within = np.tile(np.arange(run, dtype=np.int64), n_pairs)
        merged_vals = np.empty(size, dtype=np.int64)
        merged_orig = np.empty(size, dtype=np.int64)
        window_base = np.repeat(np.arange(n_pairs, dtype=np.int64) * width, run)
        left_dest = window_base + within + lt_right
        right_dest = window_base + within + le_left
        merged_vals[left_dest] = v[:, :run].ravel()
        merged_orig[left_dest] = o[:, :run].ravel()
        merged_vals[right_dest] = v[:, run:].ravel()
        merged_orig[right_dest] = o[:, run:].ravel()
        vals, orig = merged_vals, merged_orig
        run = width
    return counts


def stack_distances(blocks) -> np.ndarray:
    """LRU stack distance of every access (-1 for cold first touches).

    Bit-identical to the scalar Fenwick pass in
    :class:`repro.memsys.stackdist.StackDistanceProfiler`: the distance
    is the number of distinct blocks touched since the previous access
    to the same block.  Computed offline: the reuse gap minus the
    number of consecutive-occurrence intervals nested inside it, the
    latter being per-element inversion counts over the gap starts.
    """
    _obs.incr("memsys/fastpath/stack_distances")
    arr = np.asarray(blocks)
    n = arr.size
    dist = np.full(n, -1, dtype=np.int64)
    if n == 0:
        return dist
    prev = _previous_occurrence(arr)
    q = np.flatnonzero(prev >= 0)
    if q.size == 0:
        return dist
    p = prev[q]
    nested = _earlier_greater_counts(p)
    dist[q] = q - p - 1 - nested
    return dist


def stack_distance_histogram(blocks) -> dict[int, int]:
    """``{distance: count}`` with cold accesses keyed by -1."""
    dist = stack_distances(blocks)
    if dist.size == 0:
        return {}
    values, counts = np.unique(dist, return_counts=True)
    return {int(v): int(c) for v, c in zip(values, counts)}
