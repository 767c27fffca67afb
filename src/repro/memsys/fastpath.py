"""Vectorized trace replay: numpy-native buffers and stack distances.

The scalar stack-distance profiler
(:class:`repro.memsys.stackdist.StackDistanceProfiler`) walks a trace
one reference at a time in Python.  This module replays the *same*
trace encoding — ``(byte_address << 2) | kind`` packed in ``uint64``
arrays, exactly as :mod:`repro.memsys.block` defines it — through numpy
primitives that are bit-identical to the scalar implementation
(enforced by ``tests/memsys/test_fastpath.py``):

``stack_distances``
    Full LRU stack distances (the profiler's histogram input) via an
    offline reformulation: the distance of an access equals its reuse
    gap minus the number of consecutive-occurrence intervals nested
    inside it, and the nested-interval counts are per-element inversion
    counts, computed by a vectorized bottom-up mergesort, O(n log n).

Also here: the trace helpers (:func:`as_ref_array`,
:func:`classify_trace`, :func:`block_stream`) and the
``JMMW_FASTPATH`` switch that every fast path follows.  The miss-curve
sweep's fast path is the compiled step of
:mod:`repro.memsys.fastpath_coherence` (``SweepSession``).
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
    """Whether default-path consumers use the fast paths."""
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


# -- full LRU stack distances --------------------------------------------


def _previous_occurrence(values: np.ndarray) -> np.ndarray:
    """Index of the previous equal element, or -1 (vectorized).

    ``out[i] = max{j < i : values[j] == values[i]}`` — the reuse
    structure stack distances are built on.
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
