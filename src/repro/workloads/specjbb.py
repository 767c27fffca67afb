"""The SPECjbb2000 workload model.

SPECjbb combines all three tiers in one JVM (Section 2.1): client
threads, business logic, and an emulated database of object trees.
One thread drives each warehouse.  The properties the paper measures
emerge from the model's structure:

- **small instruction footprint** — one self-contained application
  plus the JVM runtime (~250 KB hot code), so intermediate
  instruction caches hold it (Figure 12);
- **linearly growing data set** — each warehouse adds ~14 MB of
  object trees in the old generation (Figures 11, 13);
- **sparse tree updates** — most descents only read, so the trees
  rarely produce cache-to-cache transfers (Section 5.2);
- **hot shared lines** — the company-level lock and counters are
  touched by every NewOrder/Payment, concentrating communication on
  a handful of lines (the hottest line carries ~20% of all C2C
  transfers, Figure 14).
"""

from __future__ import annotations

import numpy as np

from repro.appserver.container import CodeRegionSpec
from repro.core.config import SimConfig
from repro.errors import WorkloadError
from repro.jvm.heap import GenerationalHeap, HeapLayout
from repro.jvm.threads import ThreadRegistry
from repro.rng import RngFactory
from repro.units import mb
from repro.workloads import layout
from repro.workloads.base import (
    ChunkedTrace,
    StreamBuilder,
    TraceBundle,
    code_sweep_refs,
    emit_chunked_refs,
    region_sweep_refs,
)
from repro.workloads.codepath import CodeLayout, jvm_runtime_regions
from repro.workloads.database import EmulatedDatabase
from repro.workloads.mix import SPECJBB_MIX, JbbTxnType, pick_txn


def specjbb_code_regions() -> list[CodeRegionSpec]:
    """SPECjbb's own hot code: the benchmark is one compact program."""
    return [
        CodeRegionSpec("jbb.transaction_manager", instructions=6_000, hotness=9.0),
        CodeRegionSpec("jbb.new_order", instructions=5_000, hotness=8.0),
        CodeRegionSpec("jbb.payment", instructions=4_000, hotness=8.0),
        CodeRegionSpec("jbb.order_status", instructions=3_000, hotness=2.0),
        CodeRegionSpec("jbb.delivery", instructions=3_000, hotness=2.0),
        CodeRegionSpec("jbb.stock_level", instructions=3_000, hotness=2.0),
        CodeRegionSpec("jbb.btree_ops", instructions=5_000, hotness=10.0),
        CodeRegionSpec("jbb.util_random", instructions=2_000, hotness=6.0),
    ]


class SpecJbbWorkload:
    """Generator of SPECjbb-shaped reference streams.

    Args:
        warehouses: the benchmark scale factor — sets both the thread
            count and the emulated database size.
        remote_visit_prob: probability a tree descent targets another
            warehouse (cross-thread sharing on tree lines).
        shared_struct_prob: probability a transaction touches a shared
            JVM structure beyond the company counters.
    """

    name = "specjbb"

    def __init__(
        self,
        warehouses: int = 8,
        remote_visit_prob: float = 0.05,
        shared_struct_prob: float = 0.20,
        heap_layout: HeapLayout | None = None,
    ) -> None:
        if warehouses < 1:
            raise WorkloadError("warehouses must be >= 1")
        if not 0.0 <= remote_visit_prob <= 1.0:
            raise WorkloadError("remote_visit_prob must be in [0, 1]")
        if not 0.0 <= shared_struct_prob <= 1.0:
            raise WorkloadError("shared_struct_prob must be in [0, 1]")
        self.warehouses = warehouses
        self.remote_visit_prob = remote_visit_prob
        self.shared_struct_prob = shared_struct_prob
        self.db = EmulatedDatabase(warehouses)
        self.code = CodeLayout(
            jvm_runtime_regions() + specjbb_code_regions(),
            locality=0.78,
            offset_skew=3.5,
        )
        self.heap = GenerationalHeap(heap_layout or HeapLayout())
        self._heap_layout = self.heap.layout

    # -- trace generation ---------------------------------------------------

    def generate(
        self, n_procs: int, sim: SimConfig, rng_factory: RngFactory
    ) -> TraceBundle:
        """One reference stream per processor.

        Threads (one per warehouse) are bound round-robin to the
        processor set; each processor's stream interleaves full
        transactions from its threads.
        """
        per_cpu: list[list[int]] = []
        instructions: list[int] = []
        for builder, cpu_threads in self._processor_builders(n_procs, sim, rng_factory):
            if not cpu_threads:
                per_cpu.append([])
                instructions.append(0)
                continue
            rng = builder.rng
            turn = 0
            while len(builder.refs) < sim.refs_per_proc:
                thread = cpu_threads[turn % len(cpu_threads)]
                turn += 1
                txn = pick_txn(rng, SPECJBB_MIX)
                self._transaction(builder, thread, txn)
            per_cpu.append(builder.refs[: sim.refs_per_proc])
            instructions.append(builder.instructions)
        return TraceBundle(
            workload=self.name,
            per_cpu=per_cpu,
            instructions=instructions,
            meta={
                "warehouses": self.warehouses,
                "live_bytes": self.db.total_bytes,
                "code_bytes": self.code.total_code_bytes,
            },
        )

    def generate_chunks(
        self, n_procs: int, sim: SimConfig, rng_factory: RngFactory, chunk_refs: int
    ) -> ChunkedTrace:
        """The :meth:`generate` streams as lazy fixed-size chunks.

        Same per-processor set-up as the materialized path
        (:meth:`_processor_builders`), and the emission loop is shared
        with it via :func:`repro.workloads.base.emit_chunked_refs`, so
        each processor's concatenated chunks are bit-identical to
        ``generate(...).per_cpu[cpu]``.  Per-processor iterators are
        independent (cursor-local allocation, stateless RNG streams)
        and may be interleaved.
        """
        lengths: list[int] = []
        per_cpu: list = []
        for builder, cpu_threads in self._processor_builders(n_procs, sim, rng_factory):
            if not cpu_threads:
                lengths.append(0)
                per_cpu.append(iter(()))
                continue
            per_cpu.append(
                emit_chunked_refs(
                    builder,
                    sim.refs_per_proc,
                    chunk_refs,
                    self._txn_emitter(builder, cpu_threads),
                )
            )
            lengths.append(sim.refs_per_proc)
        return ChunkedTrace(lengths=lengths, per_cpu=per_cpu)

    def _processor_builders(
        self, n_procs: int, sim: SimConfig, rng_factory: RngFactory
    ) -> list[tuple[StreamBuilder, list]]:
        """Per-processor generation state, in processor order.

        Spawns one thread per warehouse (bound round-robin, each with
        its own heap cursor) and gives every processor a stream
        builder on its own RNG stream, pre-seeded with the pre-warm
        preamble when it fits the warmup window.  A processor without
        threads gets an empty thread list and an unseeded builder.
        """
        if n_procs < 1:
            raise WorkloadError("n_procs must be >= 1")
        heap = GenerationalHeap(self._heap_layout)
        registry = ThreadRegistry(n_procs)
        share = 1.0 / self.warehouses
        threads = [registry.spawn(cursor=heap.cursor(share)) for _ in range(self.warehouses)]
        out = []
        for cpu in range(n_procs):
            builder = StreamBuilder(rng_factory.stream(f"specjbb.cpu{cpu}"))
            cpu_threads = [t for t in threads if t.cpu == cpu]
            if cpu_threads:
                prewarm = self._prewarm_refs(cpu_threads)
                if len(prewarm) <= 0.8 * sim.warmup_fraction * sim.refs_per_proc:
                    builder.refs.extend(prewarm)
            out.append((builder, cpu_threads))
        return out

    def _txn_emitter(self, builder: StreamBuilder, cpu_threads):
        """One round-robin transaction per call, same RNG draws as
        the materialized loop body."""
        turn = 0

        def emit() -> None:
            nonlocal turn
            thread = cpu_threads[turn % len(cpu_threads)]
            turn += 1
            txn = pick_txn(builder.rng, SPECJBB_MIX)
            self._transaction(builder, thread, txn)

        return emit

    def _prewarm_refs(self, cpu_threads) -> list[int]:
        """Pre-warm preamble: hot code + this processor's hot data.

        Consumed inside the warmup window (see
        :func:`repro.workloads.base.code_sweep_refs`): the steady
        state the paper measures has the hot code and each thread's
        hot tree regions long resident.
        """
        refs = code_sweep_refs(self.code)
        for thread in cpu_threads:
            wh = thread.tid % self.warehouses
            data = self.db.warehouse(wh)
            for tree in data.trees():
                # Root and first interior level, fully.
                for level in range(min(2, tree.depth - 1)):
                    start = tree.base + tree.level_offset(level)
                    nbytes = (tree.fanout**level) * tree.node_size
                    refs.extend(region_sweep_refs(start, nbytes))
                # Hot slice of the leaf level.
                leaves_start = tree.base + tree.level_offset(tree.depth - 1)
                hot_bytes = int(0.006 * tree.n_leaves) * tree.node_size
                refs.extend(region_sweep_refs(leaves_start, hot_bytes))
        # Shared item tree: interiors plus the hot leaf slice.
        item = self.db.item_tree
        refs.extend(region_sweep_refs(item.base, item.level_offset(item.depth - 1)))
        leaves_start = item.base + item.level_offset(item.depth - 1)
        refs.extend(
            region_sweep_refs(leaves_start, item.n_leaves * item.node_size)
        )
        return refs

    def _transaction(self, b: StreamBuilder, thread, txn: JbbTxnType) -> None:
        """Emit one SPECjbb operation for ``thread``."""
        rng = b.rng
        own_wh = thread.tid % self.warehouses
        b.set_stack(thread.stack_base)
        b.code_burst(self.code, mean_burst_instr=150)
        b.stack_work(thread.stack_base, frames=3)
        # The object trees are protected by locks (Section 4.1).
        warehouse_lock = layout.SHARED_BASE + 0x2000 + own_wh * 64
        b.rmw(warehouse_lock)
        if txn.company_update and float(rng.random()) < 0.6:
            # Company-level counters: order/payment totals roll up
            # into company-wide state — the hottest line in the
            # benchmark (thread-local batching keeps it off the
            # critical path of some operations).
            b.rmw(layout.COMPANY_LOCK)
            b.rmw(layout.COMPANY_TOTALS)
        # Interleave code with the data actions of the operation body.
        # The first descent lands on a cold (uniform) leaf — the new
        # order/customer row; the rest revisit hot recent data.
        writes_left = txn.leaf_writes
        for visit in range(txn.tree_visits):
            if visit % 2 == 0:
                b.code_burst(self.code, mean_burst_instr=150)
            if float(rng.random()) < self.remote_visit_prob and self.warehouses > 1:
                wh_id = int(rng.integers(0, self.warehouses))
            else:
                wh_id = own_wh
            data = self.db.warehouse(wh_id)
            tree = data.trees()[visit % 4]
            write = writes_left > 0
            if write:
                writes_left -= 1
            if visit == 0 and txn.name == "new_order" and float(rng.random()) < 0.35:
                # The transaction's target row: uniform (cold) access.
                leaf = b.tree_descent(tree, skew=0.0, write_leaf=write)
            else:
                # Supporting rows come from the hot working set.
                leaf = b.tree_descent(
                    tree, write_leaf=write, hot_fraction=0.006, hot_prob=0.98
                )
            b.object_access(leaf, n_fields=2, write_fields=1 if write else 0)
            # Rows span two lines: scan the record body too.
            b.load(leaf + 72)
        for _ in range(txn.item_lookups):
            b.tree_descent(
                self.db.item_tree, write_leaf=False, hot_fraction=0.06, hot_prob=0.97
            )
        remaining_bursts = max(0, txn.code_bursts - txn.tree_visits // 2 - 1)
        for i in range(remaining_bursts):
            b.code_burst(self.code, mean_burst_instr=150)
            if i % 2 == 0:
                b.stack_work(thread.stack_base, frames=2)
        # Company-wide order registry: every operation records its
        # order/payment in a shared structure whose slots migrate
        # between processors — the moderately-shared traffic that makes
        # the cache-to-cache ratio grow with processor count.
        for _ in range(2):
            slot = int(rng.integers(0, 96))
            b.rmw(layout.SHARED_BASE + 0x4000 + slot * 64)
        if float(rng.random()) < self.shared_struct_prob:
            # Shared JVM structure (monitor table / intern pool).
            slot = int(rng.integers(0, 32))
            b.rmw(layout.SHARED_BASE + 0x6000 + slot * 64)
        if txn.alloc_bytes > 0 and thread.cursor is not None:
            b.allocate(thread.cursor, txn.alloc_bytes)
        if float(rng.random()) < 0.06:
            # Clock-tick bookkeeping: the OS updates this CPU's run
            # queue, which other processors (and the OS outside the
            # processor set) also scan — the residual sharing behind
            # the non-zero 1-processor copyback rate (Section 4.3).
            b.rmw(layout.RUNQUEUE_BASE + thread.cpu * 64)
        b.store(warehouse_lock)  # release

    # -- analytic models ------------------------------------------------------

    def live_memory_mb(self, scale: int) -> float:
        """Live heap after GC at ``scale`` warehouses (Figure 11).

        Linear growth (~14 MB/warehouse plus a JVM/application base)
        up to ~30 warehouses.  Beyond that the generational collector
        begins compacting the older generations: the fragmentation
        carried in the pre-30 measurements is squeezed out and the
        reported post-GC heap *decreases* (Section 4.6), at a steep
        throughput cost not visible in this metric.
        """
        if scale < 1:
            raise WorkloadError("scale must be >= 1")
        base_mb = 40.0
        per_wh_mb = EmulatedDatabase(1).bytes_per_warehouse / mb(1)
        fragmentation = 1.18
        compaction_knee = 30
        live_true = base_mb + per_wh_mb * scale
        if scale <= compaction_knee:
            return live_true * fragmentation
        # Compacted: fragmentation stripped, and increasingly aggressive
        # old-gen collection holds the post-GC heap near the knee.
        at_knee = base_mb + per_wh_mb * compaction_knee
        decline = 1.0 - 0.012 * (scale - compaction_knee)
        return max(at_knee * decline, at_knee * 0.8)

    @property
    def kernel_time_model(self):
        """SPECjbb runs in one process: essentially no system time."""
        from repro.osmodel.netstack import KernelNetworkModel

        return KernelNetworkModel.none()
