"""Replay one trace through many cache geometries at once.

Figures 12 and 13 sweep cache sizes from 64 KB to 16 MB for four
workload configurations.  Generating a fresh trace per (workload,
size) point would dominate runtime and add sampling noise between
points, so the figure drivers generate each workload's trace once and
replay it through every geometry in a single pass.

Warmup handling follows the paper's steady-state reporting: the first
``warmup_fraction`` of the trace fills the caches, then counters are
snapshotted and only the remainder is reported.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError, InvariantViolation, SimulationError
from repro.memsys.block import IFETCH, INSTRUCTIONS_PER_IFETCH, STORE
from repro.memsys.cache import SetAssociativeCache
from repro.memsys.config import CacheConfig


@dataclass
class MissCurvePoint:
    """One point of a miss-rate-vs-size curve."""

    size: int
    accesses: int
    misses: int
    mpki: float

    @property
    def miss_ratio(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


class MultiConfigSimulator:
    """Drives N independent caches with the same reference stream.

    The stream is pre-split by reference class: instruction fetches go
    to instruction caches, loads/stores to data caches, so the caller
    chooses which class a sweep measures (the paper's figures report
    split I/D miss rates).
    """

    def __init__(
        self,
        configs: list[CacheConfig],
        kind: str,
        warmup_fraction: float = 0.0,
    ) -> None:
        if kind not in ("instr", "data"):
            raise ConfigError(f"kind must be 'instr' or 'data', got {kind!r}")
        if not configs:
            raise ConfigError("need at least one cache config")
        if not 0.0 <= warmup_fraction < 1.0:
            raise ConfigError("warmup_fraction must be in [0, 1)")
        self.kind = kind
        self.caches = [SetAssociativeCache(cfg) for cfg in configs]
        self._block_bits = [cfg.block_bits for cfg in configs]
        self.instructions = 0
        self.warmup_fraction = warmup_fraction
        self._warm_instructions = 0
        self._warm_stats: list[tuple[int, int]] | None = None

    def replay(self, trace: list[int]) -> None:
        """Feed every relevant reference in ``trace`` to all caches.

        The trace is split by reference class once, up front: the kind
        tag is read exactly once per reference and the discarded class
        never enters the replay loop (it used to be decoded and skipped
        reference by reference).
        """
        refs = np.asarray(trace, dtype=np.uint64)
        kinds = refs & np.uint64(0x3)
        is_ifetch = kinds == IFETCH
        self.instructions += int(np.count_nonzero(is_ifetch)) * INSTRUCTIONS_PER_IFETCH
        want_instr = self.kind == "instr"
        mask = is_ifetch if want_instr else ~is_ifetch
        addrs = (refs >> np.uint64(2))[mask].tolist()
        caches = self.caches
        bits = self._block_bits
        n = len(caches)
        if want_instr:
            for addr in addrs:
                for i in range(n):
                    caches[i].access(addr >> bits[i], False)
        else:
            writes = (kinds[mask] == STORE).tolist()
            for addr, write in zip(addrs, writes):
                for i in range(n):
                    caches[i].access(addr >> bits[i], write)

    def mark_warm(self) -> None:
        """Snapshot counters: everything before this call is warmup."""
        self._warm_stats = [(c.stats.accesses, c.stats.misses) for c in self.caches]
        self._warm_instructions = self.instructions

    def verify(self) -> None:
        """Check the sweep's internal consistency.

        Raises :class:`~repro.errors.InvariantViolation` when the
        replay machinery has corrupted itself: every cache must have
        seen the same reference stream (identical access counts),
        misses can never exceed accesses, occupancy can never exceed
        capacity, and a warmup snapshot can never run ahead of the
        live counters it was taken from.
        """
        accesses = {cache.stats.accesses for cache in self.caches}
        if len(accesses) > 1:
            raise InvariantViolation(
                f"caches saw different reference streams: access counts "
                f"{sorted(accesses)}"
            )
        for cache in self.caches:
            name = cache.config.name or f"{cache.config.size}B"
            if cache.stats.misses > cache.stats.accesses:
                raise InvariantViolation(
                    f"cache {name}: misses ({cache.stats.misses}) > "
                    f"accesses ({cache.stats.accesses})"
                )
            capacity = cache.config.assoc * cache.config.n_sets
            if cache.occupancy() > capacity:
                raise InvariantViolation(
                    f"cache {name}: occupancy ({cache.occupancy()}) exceeds "
                    f"capacity ({capacity})"
                )
        if self._warm_stats is not None:
            if self._warm_instructions > self.instructions:
                raise InvariantViolation(
                    f"warmup snapshot has more instructions "
                    f"({self._warm_instructions}) than the live counter "
                    f"({self.instructions})"
                )
            for cache, (warm_acc, warm_miss) in zip(self.caches, self._warm_stats):
                if warm_acc > cache.stats.accesses or warm_miss > cache.stats.misses:
                    raise InvariantViolation(
                        f"warmup snapshot ({warm_acc} accesses, {warm_miss} "
                        f"misses) runs ahead of live counters "
                        f"({cache.stats.accesses}, {cache.stats.misses})"
                    )

    def results(self) -> list[MissCurvePoint]:
        """Miss-curve points over the post-warmup window.

        Verifies internal consistency first (see :meth:`verify`).
        Raises :class:`~repro.errors.SimulationError` when a warmup
        window was requested at construction but :meth:`mark_warm` was
        never called — every reported point would silently include the
        cold-start transient the caller asked to exclude.
        """
        self.verify()
        if self._warm_stats is None and self.warmup_fraction > 0.0:
            raise SimulationError(
                f"results() called without a mark_warm() snapshot, but "
                f"warmup_fraction={self.warmup_fraction} was requested; "
                f"replay the warmup window and call mark_warm() first"
            )
        warm = self._warm_stats or [(0, 0)] * len(self.caches)
        instr = self.instructions - self._warm_instructions
        points = []
        for cache, (warm_acc, warm_miss) in zip(self.caches, warm):
            accesses = cache.stats.accesses - warm_acc
            misses = cache.stats.misses - warm_miss
            mpki = 1000.0 * misses / instr if instr else 0.0
            points.append(
                MissCurvePoint(
                    size=cache.config.size,
                    accesses=accesses,
                    misses=misses,
                    mpki=mpki,
                )
            )
        return points


def simulate_miss_curve(
    trace: list[int],
    sizes: list[int],
    kind: str,
    assoc: int = 4,
    block: int = 64,
    warmup_fraction: float = 0.2,
    fastpath: bool | None = None,
) -> list[MissCurvePoint]:
    """Miss rate (MPKI) at each cache size, from one trace.

    Mirrors the paper's sweep setup: split caches, 4-way set
    associative, 64-byte blocks (Section 5.1).

    The trace is replayed as a one-chunk stream through
    :func:`repro.memsys.stream.simulate_miss_curve_stream`, so the
    compiled sweep and the scalar reference (``fastpath=False``)
    each exist once; both produce bit-identical points (enforced by
    ``tests/memsys/test_fastpath.py`` and
    ``tests/memsys/test_sweep_kernel.py``).
    """
    from repro.memsys.fastpath import as_ref_array
    from repro.memsys.stream import simulate_miss_curve_stream

    refs = as_ref_array(trace)
    return simulate_miss_curve_stream(
        [refs], int(refs.size), sizes, kind=kind, assoc=assoc, block=block,
        warmup_fraction=warmup_fraction, fastpath=fastpath,
    )
