"""The ECperf middle-tier workload model.

ECperf deploys on a real 3-tier system; the paper measures the
*application server* machine and filters out the other tiers
(Section 3.3).  The model therefore generates the app server's
reference streams, with the database, driver and supplier emulator
appearing only through their effects: JDBC marshalling, kernel
network work, and XML document handling.

The properties the paper measures emerge from the structure:

- **large instruction footprint** — servlet engine + EJB container +
  JDBC + RMI + XML + domain beans (~1 MB of hot code), so
  intermediate instruction caches miss heavily (Figure 12);
- **small, constant data footprint** — the bean cache and pools are
  fixed-size, so scaling the Orders Injection Rate leaves the middle
  tier's memory use flat beyond a small knee (Figure 11);
- **wide sharing** — every worker thread reads and updates beans all
  over the shared cache region, spreading cache-to-cache transfers
  across ~half the touched lines instead of concentrating them
  (Figures 14, 15);
- **kernel time** — each BBop's driver/database/supplier messages
  cost network-stack work that grows with contention (Figure 5).
"""

from __future__ import annotations

import numpy as np

from repro.appserver.beancache import BeanCache
from repro.appserver.container import ApplicationServer, CodeRegionSpec
from repro.appserver.ejb import all_bean_regions, ejb_container_regions
from repro.appserver.servlet import servlet_regions
from repro.core.config import SimConfig
from repro.errors import WorkloadError
from repro.jvm.heap import GenerationalHeap, HeapLayout
from repro.jvm.threads import ThreadRegistry
from repro.osmodel.netstack import KernelNetworkModel
from repro.rng import RngFactory
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
from repro.workloads.database import DatabaseTier
from repro.workloads.mix import ECPERF_MIX, EcperfTxnType, pick_txn


def kernel_net_regions() -> list[CodeRegionSpec]:
    """Kernel network-stack code executed on the app server's behalf."""
    return [
        CodeRegionSpec("kernel.tcp", instructions=10_000, hotness=6.0),
        CodeRegionSpec("kernel.ip", instructions=5_000, hotness=5.0),
        CodeRegionSpec("kernel.socket", instructions=6_000, hotness=6.0),
        CodeRegionSpec("kernel.driver_e100", instructions=4_000, hotness=4.0),
    ]


class EcperfWorkload:
    """Generator of ECperf-app-server-shaped reference streams.

    Args:
        injection_rate: the Orders Injection Rate — the benchmark's
            scale factor.  Unlike SPECjbb's warehouses it barely moves
            the middle tier's footprint (the database grows on
            *another machine*); it mainly sets concurrency.
        threads_per_proc: worker threads per processor (the tuned
            execution-queue size).
    """

    name = "ecperf"

    def __init__(
        self,
        injection_rate: int = 8,
        threads_per_proc: int = 3,
        bean_cache: BeanCache | None = None,
        database: DatabaseTier | None = None,
        heap_layout: HeapLayout | None = None,
    ) -> None:
        if injection_rate < 1:
            raise WorkloadError("injection_rate must be >= 1")
        if threads_per_proc < 1:
            raise WorkloadError("threads_per_proc must be >= 1")
        self.injection_rate = injection_rate
        self.threads_per_proc = threads_per_proc
        self.bean_cache = bean_cache if bean_cache is not None else BeanCache()
        self.database = database if database is not None else DatabaseTier()
        self.code = CodeLayout(
            jvm_runtime_regions()
            + servlet_regions()
            + ejb_container_regions()
            + all_bean_regions()
            + kernel_net_regions(),
            locality=0.65,
            offset_skew=2.2,
        )
        self._heap_layout = heap_layout or HeapLayout()

    # -- trace generation ----------------------------------------------------

    def generate(
        self, n_procs: int, sim: SimConfig, rng_factory: RngFactory
    ) -> TraceBundle:
        builders = self._processor_builders(n_procs, sim, rng_factory)
        server = ApplicationServer.tuned_for(n_procs)
        n_threads = n_procs * self.threads_per_proc
        per_cpu: list[list[int]] = []
        instructions: list[int] = []
        for builder, cpu_threads in builders:
            rng = builder.rng
            turn = 0
            while len(builder.refs) < sim.refs_per_proc:
                thread = cpu_threads[turn % len(cpu_threads)]
                turn += 1
                txn = pick_txn(rng, ECPERF_MIX)
                self._bbop(builder, thread, txn, n_threads)
            per_cpu.append(builder.refs[: sim.refs_per_proc])
            instructions.append(builder.instructions)
        return TraceBundle(
            workload=self.name,
            per_cpu=per_cpu,
            instructions=instructions,
            meta={
                "injection_rate": self.injection_rate,
                "code_bytes": self.code.total_code_bytes,
                "bean_cache_bytes": self.bean_cache.footprint_bytes,
                "thread_pool": server.threads.size,
                "connection_pool": server.connections.size,
            },
        )

    def generate_chunks(
        self, n_procs: int, sim: SimConfig, rng_factory: RngFactory, chunk_refs: int
    ) -> ChunkedTrace:
        """The :meth:`generate` streams as lazy fixed-size chunks.

        Same per-processor set-up as the materialized path
        (:meth:`_processor_builders`), and the transaction bodies are
        shared with it via :func:`repro.workloads.base.emit_chunked_refs`;
        each processor's concatenated chunks are bit-identical to
        ``generate(...).per_cpu[cpu]``, and the per-processor
        iterators may be interleaved (the bean cache's hit bookkeeping
        never feeds back into addresses).  They are the lazy trace
        source of :func:`repro.memsys.stream.simulate_miss_curve_stream`.
        """
        n_threads = n_procs * self.threads_per_proc
        per_cpu = [
            emit_chunked_refs(
                builder,
                sim.refs_per_proc,
                chunk_refs,
                self._bbop_emitter(builder, cpu_threads, n_threads),
            )
            for builder, cpu_threads in self._processor_builders(
                n_procs, sim, rng_factory
            )
        ]
        return ChunkedTrace(lengths=[sim.refs_per_proc] * n_procs, per_cpu=per_cpu)

    def _processor_builders(
        self, n_procs: int, sim: SimConfig, rng_factory: RngFactory
    ) -> list[tuple[StreamBuilder, list]]:
        """Per-processor generation state, in processor order.

        Spawns ``threads_per_proc`` worker threads per processor
        (bound round-robin, each with its own heap cursor) and gives
        every processor a stream builder on its own RNG stream,
        pre-seeded with the pre-warm preamble when it fits the warmup
        window.
        """
        if n_procs < 1:
            raise WorkloadError("n_procs must be >= 1")
        heap = GenerationalHeap(self._heap_layout)
        registry = ThreadRegistry(n_procs)
        n_threads = n_procs * self.threads_per_proc
        share = 1.0 / n_threads
        threads = [registry.spawn(cursor=heap.cursor(share)) for _ in range(n_threads)]
        out = []
        for cpu in range(n_procs):
            builder = StreamBuilder(rng_factory.stream(f"ecperf.cpu{cpu}"))
            cpu_threads = [t for t in threads if t.cpu == cpu]
            prewarm = self._prewarm_refs(cpu_threads)
            if len(prewarm) <= 0.8 * sim.warmup_fraction * sim.refs_per_proc:
                builder.refs.extend(prewarm)
            out.append((builder, cpu_threads))
        return out

    def _bbop_emitter(self, builder: StreamBuilder, cpu_threads, n_threads: int):
        """One round-robin BBop per call, same RNG draws as the
        materialized loop body."""
        turn = 0

        def emit() -> None:
            nonlocal turn
            thread = cpu_threads[turn % len(cpu_threads)]
            turn += 1
            txn = pick_txn(builder.rng, ECPERF_MIX)
            self._bbop(builder, thread, txn, n_threads)

        return emit

    def _prewarm_refs(self, cpu_threads) -> list[int]:
        """Pre-warm preamble: hot code, bean-cache warm core, buffers.

        Consumed inside the warmup window; see
        :func:`repro.workloads.base.code_sweep_refs`.
        """
        refs = code_sweep_refs(self.code)
        warm_core = (
            int(0.015 * self.bean_cache.capacity_beans) * self.bean_cache.bean_size
        )
        refs.extend(region_sweep_refs(self.bean_cache.base_addr, warm_core))
        for thread in cpu_threads:
            refs.extend(
                region_sweep_refs(
                    layout.SESSION_BASE + thread.tid * layout.SESSION_STRIDE, 4096
                )
            )
            refs.extend(
                region_sweep_refs(self.database.marshal_buffer_addr(thread.tid), 8192)
            )
        return refs

    def _bbop(
        self, b: StreamBuilder, thread, txn: EcperfTxnType, n_threads: int
    ) -> None:
        """Emit one Benchmark Business Operation for ``thread``."""
        rng = b.rng
        b.set_stack(thread.stack_base)
        # Driver request arrives: kernel receive + servlet dispatch
        # (keep-alive batching delivers several requests per frame).
        if float(rng.random()) < 0.6:
            self._kernel_receive(b)
        b.code_burst(self.code, mean_burst_instr=140)
        b.rmw(layout.THREAD_POOL_QUEUE)  # take a pooled worker
        b.stack_work(thread.stack_base, frames=3)
        session = layout.SESSION_BASE + thread.tid * layout.SESSION_STRIDE
        b.object_access(session, n_fields=3, write_fields=1)
        for _ in range(txn.servlet_bursts):
            b.code_burst(self.code, mean_burst_instr=140)
        # Business logic: bean-cache lookups, with DB round trips on miss.
        updates_left = txn.bean_updates
        for lookup in range(txn.bean_lookups):
            if lookup % 2 == 1:
                b.code_burst(self.code, mean_burst_instr=140)
            bean_addr = self.bean_cache.lookup(rng, n_threads)
            if bean_addr is None:
                self._db_roundtrip(b, thread, txn.db_roundtrips_on_miss)
                # The fetched bean is installed in the shared cache;
                # fetched beans are usually active ones near the warm core.
                u = float(rng.random()) ** 8
                bean_addr = self.bean_cache.bean_addr(
                    min(
                        int(u * self.bean_cache.capacity_beans),
                        self.bean_cache.capacity_beans - 1,
                    )
                )
                b.store(bean_addr + 8)
            write = updates_left > 0 and float(rng.random()) < 0.5
            if write:
                updates_left -= 1
            b.object_access(bean_addr, n_fields=3, write_fields=1 if write else 0)
        for _ in range(updates_left):
            # Remaining updates hit beans this BBop already holds.
            bean_addr = self.bean_cache.lookup(rng, n_threads)
            if bean_addr is not None:
                b.object_access(bean_addr, n_fields=1, write_fields=1)
        for _ in range(txn.container_bursts):
            b.code_burst(self.code, mean_burst_instr=140)
        if txn.supplier_xml:
            # Exchange an XML document with the supplier emulator.
            buffer = self.database.marshal_buffer_addr(thread.tid)
            b.scan(buffer, 4096, write=True)  # build the document
            b.code_bursts(self.code, 3, mean_burst_instr=140)  # xml parser + net client
            self._kernel_send(b, thread)
        if txn.alloc_bytes > 0 and thread.cursor is not None:
            b.allocate(thread.cursor, txn.alloc_bytes)
        if float(rng.random()) < 0.06:
            # Clock-tick bookkeeping on this CPU's run queue.
            b.rmw(layout.RUNQUEUE_BASE + thread.cpu * 64)
        # Driver response: kernel send.
        self._kernel_send(b, thread)
        b.store(layout.THREAD_POOL_QUEUE)  # return the worker

    def _db_roundtrip(self, b: StreamBuilder, thread, n: int) -> None:
        """JDBC round trips: pool lock, kernel work, result marshalling."""
        for _ in range(max(1, n)):
            b.rmw(layout.CONN_POOL_LOCK)
            slot = thread.tid % 16
            b.rmw(layout.POOL_SLOTS_BASE + slot * 64)
            b.code_bursts(self.code, 2, mean_burst_instr=140)  # JDBC driver + kernel net
            if float(b.rng.random()) < 0.5:
                self._kernel_receive(b)  # the DB's response arrives by DMA
            buffer = self.database.marshal_buffer_addr(thread.tid)
            b.scan(buffer, self.database.result_bytes(), write=True)
            b.scan(buffer, self.database.result_bytes(), write=False)
            b.store(layout.CONN_POOL_LOCK)

    def _kernel_send(self, b: StreamBuilder, thread) -> None:
        """Kernel network transmit path: shared buffer pool + stack code."""
        rng = b.rng
        b.code_burst(self.code, mean_burst_instr=140)
        nbuf = layout.NET_BUFFER_POOL + int(rng.integers(0, 64)) * 256
        b.rmw(nbuf)
        b.scan(nbuf, 512, write=True)

    #: The NIC DMA-writes arriving frames into a ring that cycles far
    #: beyond what stays L2-resident, so receive-path reads are genuine
    #: memory fetches (Figure 7's "Mem" component for ECperf).
    _RX_RING_BASE = 0x0900_0000
    _RX_RING_BYTES = 4 * 1024 * 1024

    def _kernel_receive(self, b: StreamBuilder) -> None:
        """Kernel receive path: read a freshly DMA'd frame."""
        rng = b.rng
        offset = int(rng.integers(0, self._RX_RING_BYTES // 128)) * 128
        b.scan(self._RX_RING_BASE + offset, 64, write=False)
        b.code_burst(self.code, mean_burst_instr=140)

    # -- analytic models -------------------------------------------------------

    def live_memory_mb(self, scale: int) -> float:
        """Live heap after GC at Orders Injection Rate ``scale`` (Figure 11).

        Rises while concurrency ramps (more in-flight orders and
        sessions), then flattens around IR ~6: the bean cache and
        pools are fixed-size, and the growing database lives on
        another machine.
        """
        if scale < 1:
            raise WorkloadError("scale must be >= 1")
        base_mb = 45.0
        per_ir_mb = 12.0
        knee = 6
        return base_mb + per_ir_mb * min(scale, knee) + 0.15 * max(0, scale - knee)

    @property
    def kernel_time_model(self) -> KernelNetworkModel:
        """ECperf's tiers communicate through the OS (Figure 5)."""
        return KernelNetworkModel()
