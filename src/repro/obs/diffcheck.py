"""Differential validation against independent reference oracles.

The simulators in :mod:`repro.memsys` are optimized: dict-ordered LRU
sets, a bus-side ``holders`` mirror instead of snooping every cache,
compiled and vectorized replay kernels.  Every optimization is a place
where the model can drift from its own specification without ever
crashing.
This module replays the *same* seeded traces through deliberately
naive re-implementations — written from the protocol specification,
sharing no mechanism with the production code — and diffs **full
counter vectors**, not just miss totals:

- :class:`OracleLRUCache` — brute-force per-set LRU (a list per set,
  MRU at the tail), diffed per-access against
  :class:`repro.memsys.cache.SetAssociativeCache` (:func:`diff_lru`);
- :class:`OracleCoherentMachine` — a naive MOSI/MESI/MSI multi-CPU
  hierarchy that snoops by scanning every cache (no holders mirror),
  run in lockstep with :class:`repro.memsys.hierarchy.MemoryHierarchy`
  and diffed on every per-CPU :class:`ProcessorStats` field, every
  per-L2 side counter, the bus totals and the per-line C2C footprint,
  then against ``run_trace`` replays of the same traces as one chunk
  and as a multi-chunk stream;
- :func:`oracle_stack_histogram` — an O(n·m) move-to-front stack
  distance recount diffed against
  :class:`repro.memsys.stackdist.StackDistanceProfiler` (both paths);
- the miss-curve sweep (the compiled step and the scalar reference,
  one chunk and several) recounted point-for-point with
  :class:`OracleLRUCache` (:func:`diff_miss_curve`);
- :class:`OracleStoreBuffer` — a store buffer that rescans its whole
  issue history on every store (no deque, no lazy popping), diffed
  per-issue against :class:`repro.memsys.storebuffer.StoreBuffer`;
- :class:`OracleTlb` — a list-based fully-associative LRU TLB, diffed
  per-access against :class:`repro.memsys.tlb.Tlb`.

A divergence is reported with *first-divergence context*: the
reference index, CPU, kind and address where the models first
disagree, plus a ring of the most recent accesses — corruption is
debuggable at the reference that exposed it.

:data:`FIGURE_DIFF_CONFIGS` maps each of the paper's 13 figures to the
machine configuration it exercises (private L2s, shared L2s, the OS
processor, GC copy streams, miss-curve sweeps, stack-distance
profiles), so ``jmmw diffcheck`` validates every configuration the
reproduction publishes numbers for.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.core.config import SimConfig
from repro.errors import ConfigError
from repro.memsys.block import IFETCH, INSTRUCTIONS_PER_IFETCH, LOAD, STORE
from repro.memsys.config import CacheConfig, MachineConfig, e6000_machine
from repro.memsys.hierarchy import MemoryHierarchy
from repro.memsys.stream import TraceStream, simulate_miss_curve_stream

_KIND_NAMES = {IFETCH: "ifetch", LOAD: "load", STORE: "store"}


# -- reports ----------------------------------------------------------------


@dataclass(frozen=True)
class Divergence:
    """Where and how a model first disagreed with its oracle."""

    index: int            # reference index (or vector position)
    detail: str           # what disagreed
    context: str = ""     # recent-access ring / surrounding state

    def __str__(self) -> str:
        text = f"divergence at #{self.index}: {self.detail}"
        if self.context:
            text += "\n" + self.context
        return text


@dataclass(frozen=True)
class DiffReport:
    """Outcome of one differential check."""

    name: str
    n_refs: int
    checks: int                       # counter-vector comparisons performed
    divergence: Divergence | None = None

    @property
    def ok(self) -> bool:
        return self.divergence is None

    def render(self) -> str:
        if self.ok:
            return f"[ok]   {self.name}: {self.n_refs} refs, {self.checks} vector checks"
        return f"[FAIL] {self.name}: {self.divergence}"


# -- oracle 1: brute-force per-set LRU --------------------------------------


class OracleLRUCache:
    """Set-associative true-LRU cache, the obvious way.

    One Python list per set, most-recently-used block at the tail;
    hits splice the block to the tail, misses append and evict the
    head when the set is full.  No dict-ordering tricks, no shared
    code with :class:`repro.memsys.cache.SetAssociativeCache`.
    """

    def __init__(self, n_sets: int, assoc: int) -> None:
        if n_sets <= 0 or assoc <= 0:
            raise ConfigError("n_sets and assoc must be positive")
        self.n_sets = n_sets
        self.assoc = assoc
        self._sets: list[list[int]] = [[] for _ in range(n_sets)]
        self.accesses = 0
        self.misses = 0
        self.evictions = 0

    def access(self, block: int) -> bool:
        """Touch ``block``; returns True on hit."""
        lru = self._sets[block % self.n_sets]
        self.accesses += 1
        if block in lru:
            lru.remove(block)
            lru.append(block)
            return True
        self.misses += 1
        if len(lru) >= self.assoc:
            lru.pop(0)
            self.evictions += 1
        lru.append(block)
        return False


def reference_miss_flags(blocks, n_sets: int, assoc: int) -> list[bool]:
    """Per-access miss flags from the brute-force oracle."""
    cache = OracleLRUCache(n_sets, assoc)
    if isinstance(blocks, np.ndarray):
        blocks = blocks.tolist()
    return [not cache.access(int(b)) for b in blocks]


def diff_lru(blocks, config: CacheConfig, name: str = "lru") -> DiffReport:
    """Diff the scalar cache against the LRU oracle.

    Compares the two models' per-access hit/miss decisions elementwise
    and reports the first index where they disagree.  (The compiled
    sweep's cache is covered point for point by
    :func:`diff_miss_curve`.)
    """
    from repro.memsys.cache import SetAssociativeCache

    blocks_list = blocks.tolist() if isinstance(blocks, np.ndarray) else list(blocks)
    oracle = reference_miss_flags(blocks_list, config.n_sets, config.assoc)
    scalar_cache = SetAssociativeCache(config)
    scalar = [not scalar_cache.access(int(b), write=False) for b in blocks_list]
    for i, (o, s) in enumerate(zip(oracle, scalar)):
        if o != s:
            lo = max(0, i - 8)
            ring = ", ".join(
                f"#{j}:{b:#x}" for j, b in enumerate(blocks_list[lo : i + 1], start=lo)
            )
            return DiffReport(
                name=name,
                n_refs=len(blocks_list),
                checks=1,
                divergence=Divergence(
                    index=i,
                    detail=(
                        f"block {blocks_list[i]:#x} set "
                        f"{blocks_list[i] % config.n_sets}: oracle "
                        f"{'miss' if o else 'hit'}, scalar "
                        f"{'miss' if s else 'hit'}"
                    ),
                    context=f"recent blocks: {ring}",
                ),
            )
    return DiffReport(name=name, n_refs=len(blocks_list), checks=1)


def diff_miss_curve(
    trace,
    sizes: list[int],
    kind: str,
    assoc: int = 4,
    block: int = 64,
    warmup_fraction: float = 0.2,
    name: str = "miss-curve",
) -> DiffReport:
    """Diff the full miss-curve sweep against an oracle recount.

    Runs the sweep through *both* replay paths (the compiled step and
    the scalar :class:`MultiConfigSimulator`), each as one chunk
    (:func:`repro.memsys.multisim.simulate_miss_curve`) and as several
    chunks whose boundaries include ones inside the warmup window
    (:func:`repro.memsys.stream.simulate_miss_curve_stream`), recounts
    every point with :class:`OracleLRUCache`, and compares the complete
    ``(size, accesses, misses, mpki)`` vector of every point.
    """
    from repro.memsys.fastpath import as_ref_array, classify_trace
    from repro.memsys.multisim import simulate_miss_curve

    arr = as_ref_array(trace)
    n_refs = int(arr.size)
    chunk = max(1, n_refs // 7)
    replays = {}
    for fastpath in (True, False):
        path = "fastpath" if fastpath else "scalar"
        replays[path] = simulate_miss_curve(
            arr, sizes, kind=kind, assoc=assoc, block=block,
            warmup_fraction=warmup_fraction, fastpath=fastpath,
        )
        chunks = TraceStream.from_arrays([arr], chunk_refs=chunk).chunks_merged()
        replays[f"{path} chunk={chunk}"] = simulate_miss_curve_stream(
            chunks, n_refs, sizes, kind=kind, assoc=assoc, block=block,
            warmup_fraction=warmup_fraction, fastpath=fastpath,
        )
    # Oracle recount: same warmup-split accounting, brute-force caches.
    classified = classify_trace(arr, kind)
    split = int(n_refs * warmup_fraction)
    split_class = classified.class_count_before(split)
    instr = classified.instructions - classified.instructions_before(split)
    addrs = classified.addrs.tolist()
    configs = [CacheConfig(size=s, assoc=assoc, block=block) for s in sizes]
    for i, cfg in enumerate(configs):
        cache = OracleLRUCache(cfg.n_sets, cfg.assoc)
        bits = cfg.block_bits
        warm_misses = 0
        for j, addr in enumerate(addrs):
            if j == split_class:
                warm_misses = cache.misses
            cache.access(addr >> bits)
        if split_class >= len(addrs):
            warm_misses = cache.misses
        misses = cache.misses - warm_misses
        accesses = cache.accesses - split_class
        mpki = 1000.0 * misses / instr if instr else 0.0
        want = (cfg.size, accesses, misses, mpki)
        for label, points in replays.items():
            p = points[i]
            got = (p.size, p.accesses, p.misses, p.mpki)
            if got != want:
                return DiffReport(
                    name=name, n_refs=n_refs, checks=len(sizes),
                    divergence=Divergence(
                        index=i,
                        detail=(
                            f"size {sizes[i]}: {label} {got}, oracle {want} "
                            "(vectors are size/accesses/misses/mpki)"
                        ),
                    ),
                )
    return DiffReport(name=name, n_refs=n_refs, checks=len(sizes))


# -- oracle 2: stack-distance recount ---------------------------------------


def oracle_stack_histogram(blocks) -> dict[int, int]:
    """O(n·m) move-to-front LRU stack distance histogram.

    The textbook definition, executed literally: the distance of an
    access is its block's position in the LRU stack (-1 on first
    touch), and the block then moves to the top.
    """
    if isinstance(blocks, np.ndarray):
        blocks = blocks.tolist()
    stack: list[int] = []
    hist: dict[int, int] = {}
    for block in blocks:
        try:
            depth = stack.index(block)
        except ValueError:
            depth = -1
        else:
            del stack[depth]
        stack.insert(0, block)
        hist[depth] = hist.get(depth, 0) + 1
    return hist


def diff_stackdist(blocks, name: str = "stackdist") -> DiffReport:
    """Diff the :class:`repro.memsys.stackdist.StackDistanceProfiler`
    histogram on both paths (vectorized and scalar Fenwick) against the
    recount."""
    from repro.memsys.stackdist import StackDistanceProfiler

    blocks_list = blocks.tolist() if isinstance(blocks, np.ndarray) else list(blocks)
    oracle = oracle_stack_histogram(blocks_list)
    histograms = {}
    for fastpath in (True, False):
        profiler = StackDistanceProfiler()
        profiler.feed(blocks_list)
        histograms["fastpath" if fastpath else "scalar"] = profiler.histogram(
            fastpath=fastpath
        )
    for label, hist in histograms.items():
        if hist != oracle:
            diffs = sorted(
                d for d in set(hist) | set(oracle)
                if hist.get(d, 0) != oracle.get(d, 0)
            )
            first = diffs[0]
            return DiffReport(
                name=name, n_refs=len(blocks_list), checks=len(histograms),
                divergence=Divergence(
                    index=first,
                    detail=(
                        f"{label} histogram[{first}] = {hist.get(first, 0)}, "
                        f"oracle recount = {oracle.get(first, 0)} "
                        f"({len(diffs)} buckets differ)"
                    ),
                ),
            )
    return DiffReport(name=name, n_refs=len(blocks_list), checks=len(histograms))


# -- oracle 3: naive MOSI machine -------------------------------------------


@dataclass
class _OracleSet:
    """One L2 set: LRU order list plus per-block coherence state."""

    order: list[int] = field(default_factory=list)
    state: dict[int, str] = field(default_factory=dict)


class _OracleL2:
    """One L2 cache array: explicit per-set lists, states as strings."""

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self.n_sets = config.n_sets
        self.assoc = config.assoc
        self._sets = [_OracleSet() for _ in range(self.n_sets)]

    def _set(self, block: int) -> _OracleSet:
        return self._sets[block % self.n_sets]

    def probe(self, block: int) -> str | None:
        return self._set(block).state.get(block)

    def touch(self, block: int) -> None:
        s = self._set(block)
        s.order.remove(block)
        s.order.append(block)

    def set_state(self, block: int, state: str) -> None:
        s = self._set(block)
        s.state[block] = state
        s.order.remove(block)
        s.order.append(block)

    def insert(self, block: int, state: str) -> tuple[int, str] | None:
        """Insert MRU; returns the evicted (block, state) if any."""
        s = self._set(block)
        victim = None
        if block in s.state:
            s.order.remove(block)
        elif len(s.order) >= self.assoc:
            vblock = s.order.pop(0)
            victim = (vblock, s.state.pop(vblock))
        s.order.append(block)
        s.state[block] = state
        return victim

    def remove(self, block: int) -> str | None:
        s = self._set(block)
        if block not in s.state:
            return None
        s.order.remove(block)
        return s.state.pop(block)

    def resident(self) -> list[int]:
        return [b for s in self._sets for b in s.order]


class _OracleL1:
    """Split L1: plain per-set LRU lists (write-through, no states)."""

    def __init__(self, config: CacheConfig) -> None:
        self.n_sets = config.n_sets
        self.assoc = config.assoc
        self._sets: list[list[int]] = [[] for _ in range(self.n_sets)]

    def access(self, block: int) -> bool:
        lru = self._sets[block % self.n_sets]
        if block in lru:
            lru.remove(block)
            lru.append(block)
            return True
        if len(lru) >= self.assoc:
            lru.pop(0)
        lru.append(block)
        return False

    def present(self, block: int) -> bool:
        return block in self._sets[block % self.n_sets]

    def touch(self, block: int) -> None:
        lru = self._sets[block % self.n_sets]
        lru.remove(block)
        lru.append(block)

    def remove(self, block: int) -> None:
        lru = self._sets[block % self.n_sets]
        if block in lru:
            lru.remove(block)


class OracleCoherentMachine:
    """A naive re-implementation of the full coherent hierarchy.

    Semantics follow the protocol specification (write-through
    no-allocate L1 data caches, inclusive L2s, MOSI/MESI/MSI snooping
    with dirty-copy supply) — but every mechanism is the obvious one:
    snoops *scan every cache* instead of consulting a holders mirror,
    LRU is an explicit list, and counters are plain dicts keyed by the
    same field names as :class:`repro.memsys.hierarchy.ProcessorStats`
    so vectors diff field-for-field.
    """

    PROC_FIELDS = (
        "instructions", "ifetches", "loads", "stores",
        "l1i_accesses", "l1i_misses", "l1d_accesses", "l1d_misses",
        "l2_hits", "l2_misses", "l2_data_misses", "l2_instr_misses",
        "l2_load_hits", "l2_load_misses",
        "c2c_fills", "c2c_load_fills", "mem_fills", "mem_load_fills",
        "upgrades",
    )
    SIDE_FIELDS = (
        "accesses", "misses", "c2c_fills", "mem_fills", "upgrades",
        "writebacks", "invalidations_received",
    )
    BUS_FIELDS = (
        "bus_reads", "bus_read_exclusives", "upgrades", "silent_upgrades",
        "c2c_transfers", "memory_fetches", "writebacks", "invalidations",
    )

    def __init__(
        self,
        machine: MachineConfig,
        protocol: str = "mosi",
        include_l1: bool = True,
        track_lines: bool = True,
    ) -> None:
        if protocol not in ("mosi", "msi", "mesi"):
            raise ConfigError(f"unknown protocol {protocol!r}")
        self.machine = machine
        self.protocol = protocol
        self.include_l1 = include_l1
        self.track_lines = track_lines
        n = machine.n_procs
        self._l2_of_cpu = [cpu // machine.procs_per_l2 for cpu in range(n)]
        self._l1i = [_OracleL1(machine.l1i) for _ in range(n)]
        self._l1d = [_OracleL1(machine.l1d) for _ in range(n)]
        self.l2s = [_OracleL2(machine.l2) for _ in range(machine.n_l2_caches)]
        self._l1i_bits = machine.l1i.block_bits
        self._l1d_bits = machine.l1d.block_bits
        self._l2_bits = machine.l2.block_bits
        self._cluster_cpus = [
            [cpu for cpu in range(n) if self._l2_of_cpu[cpu] == cid]
            for cid in range(machine.n_l2_caches)
        ]
        self.proc_stats = [dict.fromkeys(self.PROC_FIELDS, 0) for _ in range(n)]
        self.side_stats = [dict.fromkeys(self.SIDE_FIELDS, 0) for _ in self.l2s]
        self.bus_stats = dict.fromkeys(self.BUS_FIELDS, 0)
        self.c2c_by_line: dict[int, int] = {}

    # -- per-reference path ----------------------------------------------

    def access(self, cpu: int, ref: int) -> str:
        kind = ref & 0x3
        addr = ref >> 2
        stats = self.proc_stats[cpu]
        if kind == IFETCH:
            stats["ifetches"] += 1
            stats["instructions"] += INSTRUCTIONS_PER_IFETCH
            if self.include_l1:
                stats["l1i_accesses"] += 1
                if self._l1i[cpu].access(addr >> self._l1i_bits):
                    return "l1"
                stats["l1i_misses"] += 1
            return self._l2_access(cpu, addr, write=False, instr=True)
        if kind == STORE:
            # Write-through no-write-allocate L1D: update LRU position
            # of a present copy, then always go to the L2/bus.
            stats["stores"] += 1
            if self.include_l1:
                l1d = self._l1d[cpu]
                block = addr >> self._l1d_bits
                if l1d.present(block):
                    l1d.touch(block)
            return self._l2_access(cpu, addr, write=True)
        stats["loads"] += 1
        if self.include_l1:
            stats["l1d_accesses"] += 1
            if self._l1d[cpu].access(addr >> self._l1d_bits):
                return "l1"
            stats["l1d_misses"] += 1
        return self._l2_access(cpu, addr, write=False)

    def _l2_access(self, cpu: int, addr: int, write: bool, instr: bool = False) -> str:
        stats = self.proc_stats[cpu]
        cid = self._l2_of_cpu[cpu]
        block = addr >> self._l2_bits
        source = self._bus_write(cid, block) if write else self._bus_read(cid, block)
        load = not write and not instr
        if source == "hit":
            stats["l2_hits"] += 1
            if load:
                stats["l2_load_hits"] += 1
        elif source == "upgrade":
            stats["upgrades"] += 1
        elif source == "c2c":
            stats["l2_misses"] += 1
            stats["c2c_fills"] += 1
            if load:
                stats["c2c_load_fills"] += 1
        elif source == "mem":
            stats["l2_misses"] += 1
            stats["mem_fills"] += 1
            if load:
                stats["mem_load_fills"] += 1
        if source in ("c2c", "mem"):
            if instr:
                stats["l2_instr_misses"] += 1
            else:
                stats["l2_data_misses"] += 1
                if load:
                    stats["l2_load_misses"] += 1
        return source

    # -- naive snooping bus ----------------------------------------------

    def _bus_read(self, cid: int, block: int) -> str:
        l2 = self.l2s[cid]
        side = self.side_stats[cid]
        side["accesses"] += 1
        state = l2.probe(block)
        if state is not None:
            l2.touch(block)
            return "hit"
        side["misses"] += 1
        self.bus_stats["bus_reads"] += 1
        source = self._supply(cid, block, exclusive=False)
        side["c2c_fills" if source == "c2c" else "mem_fills"] += 1
        state = "S"
        if self.protocol == "mesi" and not self._holders_of(block):
            state = "E"
        self._install(cid, block, state)
        return source

    def _bus_write(self, cid: int, block: int) -> str:
        l2 = self.l2s[cid]
        side = self.side_stats[cid]
        side["accesses"] += 1
        state = l2.probe(block)
        if state == "M":
            l2.touch(block)
            return "hit"
        if state == "E":
            self.bus_stats["silent_upgrades"] += 1
            l2.set_state(block, "M")
            return "hit"
        if state is not None:
            self.bus_stats["upgrades"] += 1
            side["upgrades"] += 1
            self._invalidate_others(cid, block)
            l2.set_state(block, "M")
            return "upgrade"
        side["misses"] += 1
        self.bus_stats["bus_read_exclusives"] += 1
        source = self._supply(cid, block, exclusive=True)
        side["c2c_fills" if source == "c2c" else "mem_fills"] += 1
        self._invalidate_others(cid, block)
        self._install(cid, block, "M")
        return source

    def _holders_of(self, block: int) -> list[int]:
        """Snoop by scanning every cache — no mirror to go stale."""
        return [
            cid for cid, l2 in enumerate(self.l2s) if l2.probe(block) is not None
        ]

    def _supply(self, requester: int, block: int, exclusive: bool) -> str:
        for cid in self._holders_of(block):
            l2 = self.l2s[cid]
            state = l2.probe(block)
            if state == "E" and not exclusive:
                # Clean sole copy: degrade to SHARED, memory supplies.
                l2.set_state(block, "S")
                continue
            if state in ("M", "O"):
                self.bus_stats["c2c_transfers"] += 1
                if self.track_lines:
                    self.c2c_by_line[block] = self.c2c_by_line.get(block, 0) + 1
                if not exclusive:
                    if self.protocol == "mosi":
                        l2.set_state(block, "O")
                    else:
                        # MSI (and MESI): memory takes ownership; the
                        # copyback doubles as a writeback, credited to
                        # the supplying holder.
                        l2.set_state(block, "S")
                        self.bus_stats["writebacks"] += 1
                        self.side_stats[cid]["writebacks"] += 1
                return "c2c"
        self.bus_stats["memory_fetches"] += 1
        return "mem"

    def _invalidate_others(self, requester: int, block: int) -> None:
        for cid in self._holders_of(block):
            if cid == requester:
                continue
            self.l2s[cid].remove(block)
            self.side_stats[cid]["invalidations_received"] += 1
            self.bus_stats["invalidations"] += 1
            self._shoot_down_l1(cid, block)

    def _install(self, cid: int, block: int, state: str) -> None:
        victim = self.l2s[cid].insert(block, state)
        if victim is None:
            return
        vblock, vstate = victim
        if vstate in ("M", "O"):
            self.bus_stats["writebacks"] += 1
            self.side_stats[cid]["writebacks"] += 1
        self._shoot_down_l1(cid, vblock)

    def _shoot_down_l1(self, cid: int, block: int) -> None:
        if not self.include_l1:
            return
        base = block << self._l2_bits
        for cpu in self._cluster_cpus[cid]:
            for sub in range(1 << (self._l2_bits - self._l1i_bits)):
                self._l1i[cpu].remove((base >> self._l1i_bits) + sub)
            for sub in range(1 << (self._l2_bits - self._l1d_bits)):
                self._l1d[cpu].remove((base >> self._l1d_bits) + sub)

    def reset_stats(self) -> None:
        """Zero all counters, keeping cache contents warm."""
        self.proc_stats = [
            dict.fromkeys(self.PROC_FIELDS, 0) for _ in self.proc_stats
        ]
        self.side_stats = [dict.fromkeys(self.SIDE_FIELDS, 0) for _ in self.l2s]
        self.bus_stats = dict.fromkeys(self.BUS_FIELDS, 0)
        self.c2c_by_line = {}


def compare_counter_vectors(
    hierarchy: MemoryHierarchy, oracle: OracleCoherentMachine
) -> str | None:
    """First mismatching counter between a hierarchy and its oracle.

    Compares every per-CPU :class:`ProcessorStats` field, every per-L2
    side counter, the bus totals, and (when tracked) the per-line C2C
    footprint.  Returns a description of the first mismatch, or None.
    """
    for cpu, (real, ref) in enumerate(zip(hierarchy.proc_stats, oracle.proc_stats)):
        for name in OracleCoherentMachine.PROC_FIELDS:
            got = getattr(real, name)
            want = ref[name]
            if got != want:
                return f"cpu {cpu} {name}: model {got} != oracle {want}"
    for cid, (real_side, ref_side) in enumerate(
        zip(hierarchy.bus.cache_stats, oracle.side_stats)
    ):
        for name in OracleCoherentMachine.SIDE_FIELDS:
            got = getattr(real_side, name)
            want = ref_side[name]
            if got != want:
                return f"L2[{cid}] {name}: model {got} != oracle {want}"
    bus = hierarchy.bus.stats
    for name in OracleCoherentMachine.BUS_FIELDS:
        got = getattr(bus, name)
        want = oracle.bus_stats[name]
        if got != want:
            return f"bus {name}: model {got} != oracle {want}"
    if oracle.track_lines:
        if dict(bus.c2c_by_line) != oracle.c2c_by_line:
            lines = set(bus.c2c_by_line) | set(oracle.c2c_by_line)
            bad = sorted(
                line for line in lines
                if bus.c2c_by_line.get(line, 0) != oracle.c2c_by_line.get(line, 0)
            )[0]
            return (
                f"c2c_by_line[{bad:#x}]: model "
                f"{bus.c2c_by_line.get(bad, 0)} != oracle "
                f"{oracle.c2c_by_line.get(bad, 0)}"
            )
    # Conservation identities: bus-wide totals must equal the per-cache
    # sums.  The oracle shares the protocol spec with the model, so a
    # bug in the *accounting* (like MSI copyback writebacks credited
    # bus-wide but never per-cache) can agree field-for-field above and
    # still violate these.
    sides = hierarchy.bus.cache_stats
    identities = (
        ("writebacks", bus.writebacks, sum(s.writebacks for s in sides)),
        ("upgrades", bus.upgrades, sum(s.upgrades for s in sides)),
        ("invalidations", bus.invalidations,
         sum(s.invalidations_received for s in sides)),
        ("c2c_transfers", bus.c2c_transfers, sum(s.c2c_fills for s in sides)),
        ("total_misses", bus.total_misses, sum(s.misses for s in sides)),
        ("c2c+mem fills", bus.total_misses,
         bus.c2c_transfers + bus.memory_fetches),
    )
    for label, bus_total, side_total in identities:
        if bus_total != side_total:
            return (
                f"conservation: bus {label} {bus_total} != "
                f"per-cache sum {side_total}"
            )
    return None


def diff_hierarchy_replay(
    traces: list,
    machine: MachineConfig | None = None,
    protocol: str = "mosi",
    quantum: int = 64,
    warmup_fraction: float = 0.0,
    check_every: int = 4096,
    name: str = "hierarchy",
) -> DiffReport:
    """Replay traces through model and oracle in lockstep and diff them.

    Interleaves per-CPU traces exactly like
    :meth:`MemoryHierarchy.run_trace` (round-robin quanta, optional
    warmup discard), compares the two models' fill-source answer for
    *every reference*, and diffs the full counter vectors every
    ``check_every`` references and at the end.
    """
    if machine is None:
        machine = e6000_machine(len(traces))
    if len(traces) != machine.n_procs:
        raise ConfigError(
            f"expected {machine.n_procs} traces, got {len(traces)}"
        )
    hierarchy = MemoryHierarchy(machine, protocol=protocol)
    oracle = OracleCoherentMachine(machine, protocol=protocol)
    traces = [t.tolist() if isinstance(t, np.ndarray) else list(t) for t in traces]
    total_refs = sum(len(t) for t in traces)
    ring: deque[tuple[int, int, str, int, str]] = deque(maxlen=24)
    seen = 0
    checks = 0

    def ring_text() -> str:
        lines = ["recent accesses (index cpu kind addr -> model/oracle):"]
        for i, cpu, kind_name, addr, outcome in ring:
            lines.append(f"  #{i} cpu{cpu} {kind_name} addr={addr:#x} -> {outcome}")
        return "\n".join(lines)

    def replay_window(windows: list[list[int]]) -> Divergence | None:
        nonlocal seen, checks
        positions = [0] * len(windows)
        live = [cpu for cpu, t in enumerate(windows) if t]
        while live:
            next_live = []
            for cpu in live:
                trace = windows[cpu]
                pos = positions[cpu]
                end = min(pos + quantum, len(trace))
                for i in range(pos, end):
                    ref = trace[i]
                    got = hierarchy.access(cpu, ref)
                    want = oracle.access(cpu, ref)
                    kind_name = _KIND_NAMES.get(ref & 0x3, "?")
                    ring.append((seen, cpu, kind_name, ref >> 2, f"{got}/{want}"))
                    seen += 1
                    if got != want:
                        return Divergence(
                            index=seen - 1,
                            detail=(
                                f"cpu {cpu} {kind_name} addr={ref >> 2:#x}: "
                                f"model filled from {got!r}, oracle says "
                                f"{want!r}"
                            ),
                            context=ring_text(),
                        )
                    if seen % check_every == 0:
                        checks += 1
                        mismatch = compare_counter_vectors(hierarchy, oracle)
                        if mismatch:
                            return Divergence(
                                index=seen - 1, detail=mismatch, context=ring_text()
                            )
                positions[cpu] = end
                if end < len(trace):
                    next_live.append(cpu)
            live = next_live
        return None

    if warmup_fraction > 0.0:
        warm = [t[: int(len(t) * warmup_fraction)] for t in traces]
        rest = [t[int(len(t) * warmup_fraction) :] for t in traces]
        divergence = replay_window(warm)
        if divergence is not None:
            return DiffReport(name, total_refs, checks, divergence)
        hierarchy.reset_stats()
        oracle.reset_stats()
        divergence = replay_window(rest)
    else:
        divergence = replay_window(traces)
    if divergence is None:
        checks += 1
        mismatch = compare_counter_vectors(hierarchy, oracle)
        if mismatch:
            divergence = Divergence(index=seen, detail=mismatch, context=ring_text())
    if divergence is None:
        # The same traces through run_trace, which uses the compiled
        # coherence kernel when the fast path is enabled (and the scalar
        # loop when it is not), so diffcheck validates whichever replay
        # path the figures would use: once as one chunk, and once as a
        # multi-chunk stream so chunk boundaries are checked too.
        chunk = max(1, max(len(t) for t in traces) // 7)
        for label, source in (
            ("batched replay", traces),
            (
                f"streamed replay (chunk={chunk})",
                TraceStream.from_arrays(traces, chunk_refs=chunk),
            ),
        ):
            replayed = MemoryHierarchy(machine, protocol=protocol)
            replayed.run_trace(
                source, quantum=quantum, warmup_fraction=warmup_fraction
            )
            checks += 1
            mismatch = compare_counter_vectors(replayed, oracle)
            if mismatch:
                divergence = Divergence(index=seen, detail=f"{label}: {mismatch}")
                break
    return DiffReport(name, total_refs, checks, divergence)


# -- oracle 4: store-buffer history rescan -----------------------------------


class OracleStoreBuffer:
    """Store buffer semantics executed from the specification, slowly.

    Keeps the *entire* drain history as a plain list and rescans it on
    every issue: the buffer is full when ``depth`` drains are still
    pending, and a full buffer stalls the store until the oldest
    pending drain completes.  Drains are serialized — each starts when
    the previous one finishes.  An entry leaves the buffer the moment
    the buffer has *advanced* past its completion — a stalled store
    enters at ``now + stall``, so everything completed by then is gone
    for good, even for a later issue at an earlier ``now`` (the
    ``_drained_until`` clock).  No deque, no lazy popping, no shared
    code with :class:`repro.memsys.storebuffer.StoreBuffer`.

    Issue times must be nondecreasing (stores come from a program
    order), matching the production model's use.
    """

    def __init__(self, depth: int) -> None:
        if depth <= 0:
            raise ConfigError("depth must be positive")
        self.depth = depth
        self.stores = 0
        self.stall_cycles = 0
        self.stalled_stores = 0
        self._done_times: list[int] = []
        self._drained_until = 0

    def issue(self, now: int, drain_latency: int) -> int:
        if drain_latency <= 0:
            raise ConfigError("drain_latency must be positive")
        self.stores += 1
        self._drained_until = max(self._drained_until, now)
        pending = [d for d in self._done_times if d > self._drained_until]
        stall = 0
        if len(pending) >= self.depth:
            stall = min(pending) - now
            self.stall_cycles += stall
            self.stalled_stores += 1
            self._drained_until = now + stall
        start = now + stall
        if self._done_times:
            start = max(start, self._done_times[-1])
        self._done_times.append(start + drain_latency)
        return stall


def diff_store_buffer(
    events: list[tuple[int, int]], depth: int, name: str = "storebuffer"
) -> DiffReport:
    """Replay ``(now, drain_latency)`` issues through model and oracle.

    Issue times must be nondecreasing.  Compares the returned stall of
    every issue as it happens, then the final counter vector
    (``stores``, ``stall_cycles``, ``stalled_stores``).
    """
    from repro.memsys.storebuffer import StoreBuffer

    model = StoreBuffer(depth=depth)
    oracle = OracleStoreBuffer(depth=depth)
    ring: deque[str] = deque(maxlen=12)
    for i, (now, latency) in enumerate(events):
        got = model.issue(now, latency)
        want = oracle.issue(now, latency)
        ring.append(f"  #{i} now={now} latency={latency} -> {got}/{want}")
        if got != want:
            return DiffReport(
                name=name, n_refs=len(events), checks=i + 1,
                divergence=Divergence(
                    index=i,
                    detail=(
                        f"issue(now={now}, drain_latency={latency}): model "
                        f"stalled {got} cycles, oracle says {want}"
                    ),
                    context="recent issues (model/oracle stall):\n"
                    + "\n".join(ring),
                ),
            )
    for field_name in ("stores", "stall_cycles", "stalled_stores"):
        got = getattr(model, field_name)
        want = getattr(oracle, field_name)
        if got != want:
            return DiffReport(
                name=name, n_refs=len(events), checks=len(events) + 1,
                divergence=Divergence(
                    index=len(events),
                    detail=f"{field_name}: model {got} != oracle {want}",
                ),
            )
    return DiffReport(name=name, n_refs=len(events), checks=len(events) + 1)


# -- oracle 5: list-based TLB ------------------------------------------------


class OracleTlb:
    """Fully-associative LRU TLB, the obvious way.

    One Python list of resident pages, MRU at the tail; pages come
    from integer division by the page size.  No dict-ordering tricks,
    no shared code with :class:`repro.memsys.tlb.Tlb`.
    """

    def __init__(self, entries: int, page_size: int) -> None:
        if entries <= 0:
            raise ConfigError("entries must be positive")
        if page_size <= 0:
            raise ConfigError("page_size must be positive")
        self.entries = entries
        self.page_size = page_size
        self.accesses = 0
        self.misses = 0
        self._lru: list[int] = []

    def access(self, addr: int) -> bool:
        page = addr // self.page_size
        self.accesses += 1
        if page in self._lru:
            self._lru.remove(page)
            self._lru.append(page)
            return True
        self.misses += 1
        if len(self._lru) >= self.entries:
            self._lru.pop(0)
        self._lru.append(page)
        return False


def diff_tlb(
    addrs, entries: int, page_size: int, name: str = "tlb"
) -> DiffReport:
    """Replay byte addresses through model TLB and oracle in lockstep.

    Compares every access's hit/miss decision as it happens, then the
    final ``accesses``/``misses`` counters.  ``page_size`` must be a
    power of two (the production model shifts; the oracle divides).
    """
    from repro.memsys.tlb import Tlb

    addrs = addrs.tolist() if isinstance(addrs, np.ndarray) else list(addrs)
    model = Tlb(entries=entries, page_size=page_size)
    oracle = OracleTlb(entries=entries, page_size=page_size)
    ring: deque[str] = deque(maxlen=12)
    for i, addr in enumerate(addrs):
        got = model.access(int(addr))
        want = oracle.access(int(addr))
        outcome = f"{'hit' if got else 'miss'}/{'hit' if want else 'miss'}"
        ring.append(f"  #{i} addr={int(addr):#x} page={int(addr) // page_size:#x} -> {outcome}")
        if got != want:
            return DiffReport(
                name=name, n_refs=len(addrs), checks=i + 1,
                divergence=Divergence(
                    index=i,
                    detail=(
                        f"addr {int(addr):#x} (page {int(addr) // page_size:#x}): "
                        f"model {'hit' if got else 'miss'}, oracle "
                        f"{'hit' if want else 'miss'}"
                    ),
                    context="recent accesses (model/oracle):\n" + "\n".join(ring),
                ),
            )
    for field_name in ("accesses", "misses"):
        got = getattr(model, field_name)
        want = getattr(oracle, field_name)
        if got != want:
            return DiffReport(
                name=name, n_refs=len(addrs), checks=len(addrs) + 1,
                divergence=Divergence(
                    index=len(addrs),
                    detail=f"{field_name}: model {got} != oracle {want}",
                ),
            )
    return DiffReport(name=name, n_refs=len(addrs), checks=len(addrs) + 1)


# -- figure-configuration coverage ------------------------------------------


@dataclass(frozen=True)
class FigureDiffConfig:
    """The machine/workload configuration one figure exercises."""

    fig_id: str
    mode: str                    # "hierarchy" | "miss_curve" | "stackdist"
    workload: str = "specjbb"
    scale: int | None = None
    n_procs: int = 4
    procs_per_l2: int = 1
    protocol: str = "mosi"
    include_os: bool = False
    with_gc_stream: bool = False
    kind: str = "data"           # miss_curve reference class


#: Reduced-effort simulation the figure diffchecks replay (the oracles
#: are deliberately naive, so traces stay small).
DIFF_SIM = SimConfig(seed=1234, refs_per_proc=4_000, warmup_fraction=0.5)

#: Miss-curve sweep sizes small enough that tiny traces still evict.
DIFF_SWEEP_SIZES = [16 * 1024, 32 * 1024, 64 * 1024, 128 * 1024]

#: One entry per paper figure: every machine configuration the
#: reproduction publishes numbers for gets differential coverage.
FIGURE_DIFF_CONFIGS: list[FigureDiffConfig] = [
    FigureDiffConfig("fig04", "hierarchy", "specjbb", None, n_procs=4),
    FigureDiffConfig("fig05", "hierarchy", "ecperf", None, n_procs=4),
    FigureDiffConfig("fig06", "hierarchy", "specjbb", None, n_procs=6),
    FigureDiffConfig("fig07", "hierarchy", "ecperf", None, n_procs=6),
    FigureDiffConfig("fig08", "hierarchy", "specjbb", None, n_procs=4, include_os=True),
    FigureDiffConfig("fig09", "hierarchy", "specjbb", None, n_procs=4),
    FigureDiffConfig("fig10", "hierarchy", "specjbb", None, n_procs=4,
                     with_gc_stream=True),
    FigureDiffConfig("fig11", "stackdist", "specjbb", 8, n_procs=1),
    FigureDiffConfig("fig12", "miss_curve", "ecperf", 8, n_procs=1, kind="instr"),
    FigureDiffConfig("fig13", "miss_curve", "specjbb", 1, n_procs=1, kind="data"),
    FigureDiffConfig("fig14", "hierarchy", "specjbb", None, n_procs=4),
    FigureDiffConfig("fig15", "hierarchy", "ecperf", None, n_procs=4),
    FigureDiffConfig("fig16", "hierarchy", "ecperf", None, n_procs=4,
                     procs_per_l2=2),
]


def _figure_traces(config: FigureDiffConfig, sim: SimConfig) -> list:
    """Seeded per-CPU traces matching a figure's workload setup.

    Built from a :class:`~repro.harness.traceplane.TraceSpec` through
    :func:`~repro.figures.common.figure_trace`, with the OS processor's
    stream from :func:`~repro.figures.common.os_processor_trace`: the
    same sources the figures replay.
    """
    from repro.figures.common import figure_trace, os_processor_trace
    from repro.harness.traceplane import TraceSpec
    from repro.jvm.gc import GenerationalCollector

    if config.scale is not None:
        spec = TraceSpec(config.workload, config.scale, config.n_procs, sim)
    else:
        spec = TraceSpec.official(config.workload, config.n_procs, sim)
    traces = [t.tolist() for t in figure_trace(spec).per_cpu]
    if config.with_gc_stream:
        # Figure 10 replays the collector's private copy traffic.
        traces[0] = traces[0] + GenerationalCollector.copy_ref_stream(
            from_base=0x6000_0000, to_base=0x6800_0000, nbytes=64 * 1024
        )
    if config.include_os:
        traces.append(os_processor_trace(config.n_procs, sim))
    return traces


def run_figure_diffcheck(
    config: FigureDiffConfig, sim: SimConfig | None = None
) -> DiffReport:
    """Run the differential check for one figure configuration."""
    from repro.memsys.fastpath import block_stream

    sim = sim if sim is not None else DIFF_SIM
    name = f"{config.fig_id}/{config.mode}"
    if config.mode == "hierarchy":
        traces = _figure_traces(config, sim)
        machine = e6000_machine(len(traces))
        if config.procs_per_l2 > 1 and len(traces) % config.procs_per_l2 == 0:
            machine = machine.with_shared_l2(config.procs_per_l2)
        return diff_hierarchy_replay(
            traces,
            machine=machine,
            protocol=config.protocol,
            quantum=sim.interleave_quantum,
            warmup_fraction=sim.warmup_fraction,
            name=name,
        )
    traces = _figure_traces(config, sim)
    merged = [ref for trace in traces for ref in trace]
    if config.mode == "miss_curve":
        return diff_miss_curve(
            merged, DIFF_SWEEP_SIZES, kind=config.kind,
            warmup_fraction=sim.warmup_fraction, name=name,
        )
    if config.mode == "stackdist":
        blocks = block_stream(merged, config.kind).tolist()
        return diff_stackdist(blocks, name=name)
    raise ConfigError(f"unknown diff mode {config.mode!r}")


def run_all_figure_diffchecks(
    fig_ids: list[str] | None = None, sim: SimConfig | None = None
) -> list[DiffReport]:
    """Differentially validate every (or the named) figure configs."""
    wanted = None if not fig_ids else set(fig_ids)
    configs = [
        c for c in FIGURE_DIFF_CONFIGS if wanted is None or c.fig_id in wanted
    ]
    if wanted is not None:
        known = {c.fig_id for c in FIGURE_DIFF_CONFIGS}
        unknown = sorted(wanted - known)
        if unknown:
            raise ConfigError(
                f"unknown figure ids {unknown}; known: {sorted(known)}"
            )
    return [run_figure_diffcheck(config, sim) for config in configs]
