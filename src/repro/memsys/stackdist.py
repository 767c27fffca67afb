"""LRU stack-distance profiling.

Mattson's inclusion property: for fully-associative LRU caches, an
access hits in every cache of capacity greater than its *stack
distance* (number of distinct blocks touched since the previous access
to the same block).  One pass over a trace therefore yields the miss
count for every capacity simultaneously — the cheap first-order tool
behind working-set statements like the paper's "primary working sets
are small" claim, complementing the exact set-associative sweeps in
:mod:`repro.memsys.multisim`.

Implementation: a vectorized offline pass (see
:func:`repro.memsys.fastpath.stack_distances`) with the classic
O(n log n) Fenwick-tree formulation retained as the scalar reference
(``histogram(fastpath=False)``); both produce identical histograms.
For chunked block streams, :class:`repro.memsys.stream.StackAccumulator`
folds each chunk into the histogram as it arrives, carrying only the
LRU stack between chunks (O(footprint) memory instead of
O(references)), with a bit-identical merged histogram.
"""

from __future__ import annotations

import numpy as np

from repro.errors import AnalysisError


class _Fenwick:
    """Binary indexed tree for prefix sums over timestamps."""

    def __init__(self, n: int) -> None:
        self._tree = [0] * (n + 1)
        self._n = n

    def add(self, index: int, delta: int) -> None:
        i = index + 1
        tree = self._tree
        n = self._n
        while i <= n:
            tree[i] += delta
            i += i & (-i)

    def prefix_sum(self, index: int) -> int:
        """Sum of elements [0, index]."""
        i = index + 1
        tree = self._tree
        total = 0
        while i > 0:
            total += tree[i]
            i -= i & (-i)
        return total


class StackDistanceProfiler:
    """Accumulates an LRU stack-distance histogram over block streams."""

    #: Histogram bucket for cold (first-touch) accesses.
    COLD = -1

    def __init__(self) -> None:
        self._accesses: list[int] = []
        self._histogram: dict[int, int] | None = None

    def feed(self, blocks: list[int]) -> None:
        """Append a stream of block addresses to the profile.

        Accepts plain lists or numpy arrays; invalidates any memoized
        histogram.
        """
        if isinstance(blocks, np.ndarray):
            blocks = blocks.tolist()
        self._accesses.extend(blocks)
        self._histogram = None

    @property
    def n_accesses(self) -> int:
        return len(self._accesses)

    def histogram(self, fastpath: bool | None = None) -> dict[int, int]:
        """Return {stack_distance: count}; COLD (-1) counts first touches.

        The result is memoized until the next :meth:`feed` —
        :meth:`misses_at` and :meth:`working_set_size` both call this,
        and previously each call redid the full O(n log n) pass.
        ``fastpath`` selects the vectorized pass (default per
        :func:`repro.memsys.fastpath.fastpath_enabled`) or the scalar
        Fenwick reference; both are bit-identical, so the memo is
        shared.
        """
        if self._histogram is None:
            from repro.memsys import fastpath as _fastpath

            use_fast = _fastpath.fastpath_enabled() if fastpath is None else fastpath
            if use_fast:
                self._histogram = _fastpath.stack_distance_histogram(self._accesses)
            else:
                self._histogram = self._scalar_histogram()
        return dict(self._histogram)

    def _scalar_histogram(self) -> dict[int, int]:
        """The Fenwick-tree reference implementation."""
        accesses = self._accesses
        n = len(accesses)
        hist: dict[int, int] = {}
        if n == 0:
            return hist
        tree = _Fenwick(n)
        last_seen: dict[int, int] = {}
        for t, block in enumerate(accesses):
            prev = last_seen.get(block)
            if prev is None:
                distance = self.COLD
            else:
                # Distinct blocks touched in (prev, t): each block
                # contributes at most one mark (its latest access).
                distance = tree.prefix_sum(t - 1) - tree.prefix_sum(prev)
                tree.add(prev, -1)
            hist[distance] = hist.get(distance, 0) + 1
            tree.add(t, +1)
            last_seen[block] = t
        return hist

    def misses_at(self, capacities: list[int]) -> dict[int, int]:
        """Miss counts for fully-associative LRU caches of given capacities.

        ``capacities`` are in blocks.  An access with stack distance d
        hits iff capacity > d; cold accesses always miss.
        """
        if any(c <= 0 for c in capacities):
            raise AnalysisError("capacities must be positive block counts")
        hist = self.histogram()
        cold = hist.get(self.COLD, 0)
        # Sort distances once, then answer each capacity by summing the tail.
        finite = sorted((d, c) for d, c in hist.items() if d != self.COLD)
        out: dict[int, int] = {}
        for cap in capacities:
            tail = sum(count for dist, count in finite if dist >= cap)
            out[cap] = cold + tail
        return out

    def working_set_size(self, hit_fraction: float = 0.95) -> int:
        """Smallest capacity (blocks) achieving ``hit_fraction`` of warm hits.

        The "primary working set" metric: how many blocks a
        fully-associative cache needs so that the given fraction of
        non-cold accesses hit.
        """
        if not 0.0 < hit_fraction <= 1.0:
            raise AnalysisError("hit_fraction must be in (0, 1]")
        hist = self.histogram()
        finite = sorted((d, c) for d, c in hist.items() if d != self.COLD)
        total = sum(c for _, c in finite)
        if total == 0:
            return 0
        needed = hit_fraction * total
        seen = 0
        for dist, count in finite:
            seen += count
            if seen >= needed:
                return dist + 1
        return finite[-1][0] + 1
