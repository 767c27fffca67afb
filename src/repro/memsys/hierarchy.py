"""Multi-processor memory hierarchy.

Composes private split L1 caches, private or shared L2 caches, and the
MOSI snooping bus into the machine the paper measures.  The shared-L2
configurations reproduce the chip-multiprocessor study of Section 5.3:
with ``procs_per_l2 = 8`` on an 8-processor machine, all processors
share one 1 MB L2 and coherence misses between them disappear (their
sharing becomes cache hits), at the cost of capacity/conflict misses.

Inclusion is maintained the way snooping SMPs do it: when the bus
invalidates an L2 line, the corresponding L1 lines above that L2 are
shot down through the bus's invalidation hook.

This module owns the per-reference model (:meth:`MemoryHierarchy.access`,
the scalar reference).  Trace replay has one form: ``run_trace`` hands
materialized traces and chunked streams alike to
:func:`repro.memsys.stream.run_trace_stream`, which drives either this
access loop or the compiled kernel
(:mod:`repro.memsys.fastpath_coherence`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.memsys.config import MachineConfig
from repro.errors import ConfigError
from repro.memsys.block import IFETCH, INSTRUCTIONS_PER_IFETCH, STORE
from repro.memsys.cache import SetAssociativeCache
from repro.memsys.coherence import FILL_C2C, FILL_HIT, FILL_MEM, FILL_UPGRADE, MOSIBus
from repro.memsys import invariants as _invariants
from repro.memsys.stream import TraceStream, run_trace_stream


@dataclass
class ProcessorStats:
    """Per-processor reference and miss counters."""

    instructions: int = 0
    ifetches: int = 0
    loads: int = 0
    stores: int = 0
    l1i_accesses: int = 0
    l1i_misses: int = 0
    l1d_accesses: int = 0
    l1d_misses: int = 0
    l2_hits: int = 0
    l2_misses: int = 0
    l2_data_misses: int = 0
    l2_instr_misses: int = 0
    l2_load_hits: int = 0
    l2_load_misses: int = 0
    c2c_fills: int = 0
    c2c_load_fills: int = 0
    mem_fills: int = 0
    mem_load_fills: int = 0
    upgrades: int = 0

    @property
    def data_refs(self) -> int:
        return self.loads + self.stores

    @property
    def c2c_ratio(self) -> float:
        return self.c2c_fills / self.l2_misses if self.l2_misses else 0.0

    def mpki(self, misses: int) -> float:
        """Misses per 1000 instructions for this processor."""
        return 1000.0 * misses / self.instructions if self.instructions else 0.0


class MemoryHierarchy:
    """The simulated machine's full cache hierarchy.

    Usage: build from a :class:`MachineConfig`, then either call
    ``access(cpu, ref)`` per reference or hand per-processor traces to
    ``run_trace`` which interleaves them in round-robin quanta (the
    deterministic stand-in for an OS scheduler time-slicing the bus).
    """

    def __init__(
        self,
        machine: MachineConfig,
        protocol: str = "mosi",
        include_l1: bool = True,
        track_lines: bool = True,
        check_invariants: bool | None = None,
        check_sample: int | None = None,
    ) -> None:
        self.machine = machine
        self.include_l1 = include_l1
        n = machine.n_procs
        self.proc_stats = [ProcessorStats() for _ in range(n)]
        self._l2_of_cpu = [cpu // machine.procs_per_l2 for cpu in range(n)]
        self._l1i = [SetAssociativeCache(machine.l1i) for _ in range(n)]
        self._l1d = [SetAssociativeCache(machine.l1d) for _ in range(n)]
        l2_caches = [
            SetAssociativeCache(machine.l2) for _ in range(machine.n_l2_caches)
        ]
        self.bus = MOSIBus(
            l2_caches,
            protocol=protocol,
            track_lines=track_lines,
            on_invalidate=self._shoot_down_l1 if include_l1 else None,
        )
        self._l1i_bits = machine.l1i.block_bits
        self._l1d_bits = machine.l1d.block_bits
        self._l2_bits = machine.l2.block_bits
        if include_l1 and (
            self._l2_bits < self._l1i_bits or self._l2_bits < self._l1d_bits
        ):
            raise ConfigError("L2 blocks must be at least as large as L1 blocks")
        # Processors in each L2 cluster, for L1 shoot-downs.
        self._cluster_cpus = [
            [cpu for cpu in range(n) if self._l2_of_cpu[cpu] == cid]
            for cid in range(machine.n_l2_caches)
        ]
        # Opt-in runtime invariant checking (JMMW_CHECK=1 or explicit).
        # When off — the default — the hot path is untouched; when on,
        # the instance attribute shadows the class method so every
        # access lands in the checker's sampled verification.
        if check_invariants is None:
            check_invariants = _invariants.checking_enabled()
        self.checker: _invariants.InvariantChecker | None = None
        if check_invariants:
            period = (
                check_sample if check_sample is not None
                else _invariants.sample_period()
            )
            self.checker = _invariants.InvariantChecker(self, sample_every=period)
            self.access = self._checked_access  # type: ignore[method-assign]

    # -- per-reference path -----------------------------------------------

    def access(self, cpu: int, ref: int) -> str:
        """Route one encoded reference through the hierarchy.

        Returns where it was satisfied: ``"l1"``, or the bus fill
        source (``"hit"`` = L2 hit, ``"upgrade"``, ``"c2c"``, ``"mem"``).
        """
        kind = ref & 0x3
        addr = ref >> 2
        stats = self.proc_stats[cpu]
        if kind == IFETCH:
            stats.ifetches += 1
            stats.instructions += INSTRUCTIONS_PER_IFETCH
            if self.include_l1:
                stats.l1i_accesses += 1
                if self._l1i[cpu].access(addr >> self._l1i_bits, write=False):
                    return "l1"
                stats.l1i_misses += 1
            return self._l2_access(cpu, addr, write=False, instr=True)
        if kind == STORE:
            # The UltraSPARC II L1 data cache is write-through with
            # no-write-allocate: a store updates the L1 copy if
            # present but always propagates to the L2/bus, where
            # coherence acts on it.
            stats.stores += 1
            if self.include_l1:
                l1d = self._l1d[cpu]
                block = addr >> self._l1d_bits
                if l1d.probe(block) is not None:
                    l1d.touch(block)
            return self._l2_access(cpu, addr, write=True)
        stats.loads += 1
        if self.include_l1:
            stats.l1d_accesses += 1
            if self._l1d[cpu].access(addr >> self._l1d_bits, write=False):
                return "l1"
            stats.l1d_misses += 1
        return self._l2_access(cpu, addr, write=False)

    def _l2_access(self, cpu: int, addr: int, write: bool, instr: bool = False) -> str:
        stats = self.proc_stats[cpu]
        cache_id = self._l2_of_cpu[cpu]
        block = addr >> self._l2_bits
        if write:
            source = self.bus.write(cache_id, block)
        else:
            source = self.bus.read(cache_id, block)
        load = not write and not instr
        if source == FILL_HIT:
            stats.l2_hits += 1
            if load:
                stats.l2_load_hits += 1
        elif source == FILL_UPGRADE:
            stats.upgrades += 1
        elif source == FILL_C2C:
            stats.l2_misses += 1
            stats.c2c_fills += 1
            if load:
                stats.c2c_load_fills += 1
        elif source == FILL_MEM:
            stats.l2_misses += 1
            stats.mem_fills += 1
            if load:
                stats.mem_load_fills += 1
        if source in (FILL_C2C, FILL_MEM):
            if instr:
                stats.l2_instr_misses += 1
            else:
                stats.l2_data_misses += 1
                if load:
                    stats.l2_load_misses += 1
        return source

    def _checked_access(self, cpu: int, ref: int) -> str:
        """``access`` with the invariant checker observing every reference."""
        source = MemoryHierarchy.access(self, cpu, ref)
        self.checker.record(cpu, ref, source)
        return source

    def check_invariants(self) -> None:
        """Run the full invariant suite now, regardless of sampling.

        Raises :class:`~repro.errors.InvariantViolation` on corruption.
        Works whether or not the hierarchy was built with checking
        enabled (a one-shot checker is created on demand).
        """
        checker = self.checker or _invariants.InvariantChecker(self, sample_every=1)
        checker.check()

    def _shoot_down_l1(self, cache_id: int, block: int) -> None:
        """Invalidate L1 copies above an invalidated L2 line."""
        base = block << self._l2_bits
        for cpu in self._cluster_cpus[cache_id]:
            ratio_i = 1 << (self._l2_bits - self._l1i_bits)
            first_i = base >> self._l1i_bits
            l1i = self._l1i[cpu]
            for sub in range(ratio_i):
                l1i.remove(first_i + sub)
            ratio_d = 1 << (self._l2_bits - self._l1d_bits)
            first_d = base >> self._l1d_bits
            l1d = self._l1d[cpu]
            for sub in range(ratio_d):
                l1d.remove(first_d + sub)

    # -- trace replay -------------------------------------------------------

    def reset_stats(self) -> None:
        """Zero processor and bus counters, keeping caches warm."""
        self.proc_stats = [ProcessorStats() for _ in range(self.machine.n_procs)]
        self.bus.reset_stats()

    def run_trace(
        self,
        per_cpu_traces: list[list[int]] | TraceStream,
        quantum: int = 64,
        warmup_fraction: float = 0.0,
        fastpath: bool | None = None,
    ) -> None:
        """Interleave per-processor traces round-robin and replay them.

        Each processor consumes up to ``quantum`` references per turn;
        processors whose traces are exhausted drop out.  Deterministic
        given the traces, so the variability methodology perturbs the
        workload generation rather than the interleaving.

        With ``warmup_fraction`` > 0, the first fraction of each trace
        fills the caches and is then discarded from the counters, so
        reported rates are steady-state.

        ``per_cpu_traces`` is one sequence of encoded references per
        processor, or a :class:`~repro.memsys.stream.TraceStream` whose
        chunks are replayed as they arrive.  A materialized trace is
        replayed as a one-chunk stream: every replay goes through
        :func:`repro.memsys.stream.run_trace_stream`, with final state
        and counters independent of where chunk boundaries fall.

        ``fastpath`` controls the compiled coherence kernel
        (:mod:`repro.memsys.fastpath_coherence`): ``None`` follows the
        global ``JMMW_FASTPATH`` switch, ``False`` forces the scalar
        reference loop.  The kernel only engages on a cold hierarchy
        with no invariant checker attached; whenever it declines, the
        scalar loop runs and produces the identical state.
        """
        if not isinstance(per_cpu_traces, TraceStream):
            longest = max((len(t) for t in per_cpu_traces), default=0)
            per_cpu_traces = TraceStream.from_arrays(
                per_cpu_traces, chunk_refs=max(1, longest)
            )
        run_trace_stream(
            self, per_cpu_traces,
            quantum=quantum, warmup_fraction=warmup_fraction, fastpath=fastpath,
        )

    # -- aggregates -----------------------------------------------------------

    @property
    def total_instructions(self) -> int:
        return sum(s.instructions for s in self.proc_stats)

    @property
    def total_l2_misses(self) -> int:
        return sum(s.l2_misses for s in self.proc_stats)

    @property
    def total_c2c_fills(self) -> int:
        return sum(s.c2c_fills for s in self.proc_stats)

    def c2c_ratio(self) -> float:
        """Machine-wide fraction of L2 misses hitting another cache."""
        misses = self.total_l2_misses
        return self.total_c2c_fills / misses if misses else 0.0

    def data_mpki(self) -> float:
        """Machine-wide L2 *data* misses per 1000 instructions.

        This is the Figure 16 metric: each L2 miss is attributed to
        the reference kind that caused it, and instruction fills are
        excluded.
        """
        instr = self.total_instructions
        if not instr:
            return 0.0
        data_misses = sum(s.l2_data_misses for s in self.proc_stats)
        return 1000.0 * data_misses / instr
