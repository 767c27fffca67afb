"""Figure 10: cache-to-cache transfers per second over time.

Paper: counting snoop copybacks in 100 ms bins over a SPECjbb run
shows the transfer rate collapsing to almost zero during the three
garbage collections in the measurement window — contrary to the
authors' hypothesis that the copying collector *causes* the
transfers.  The collector's traffic (reading mostly-evicted from-space
and writing a private to-space) produces memory fetches, not
copybacks, and all other processors are idle.
"""

from __future__ import annotations

from repro.core.config import SimConfig, e6000_machine
from repro.figures.common import (
    FIGURE_SIM,
    FigureResult,
    figure_trace,
    make_workload,
    sweep_specs,
)
from repro.jvm.gc import GenerationalCollector
from repro.memsys.hierarchy import MemoryHierarchy
from repro.rng import RngFactory

#: Timeline structure: bins of "100 ms"; three collections in the window.
N_BINS = 36
GC_BINS = {9, 10, 21, 22, 33, 34}
N_PROCS = 8


def trace_specs(sim: SimConfig):
    """The one trace this figure replays: SPECjbb on 8 processors."""
    return sweep_specs(sim, [N_PROCS], ["specjbb"])


def run(sim: SimConfig | None = None) -> FigureResult:
    """Reproduce Figure 10 (normalized C2C rate per time bin)."""
    sim = sim if sim is not None else FIGURE_SIM
    (spec,) = trace_specs(sim)
    workload = make_workload(spec.workload, spec.scale)
    bundle = figure_trace(spec)
    hierarchy = MemoryHierarchy(e6000_machine(N_PROCS))

    # Warm up on the first half of every trace.
    warm = [t[: len(t) // 2] for t in bundle.per_cpu]
    rest = [t[len(t) // 2 :] for t in bundle.per_cpu]
    hierarchy.run_trace(warm, quantum=sim.interleave_quantum)
    hierarchy.reset_stats()

    # Split the measurement half into mutator bins.
    mutator_bins = max(1, N_BINS - len(GC_BINS))
    bin_len = min(len(t) for t in rest) // mutator_bins
    collector_rng = RngFactory(seed=sim.seed).stream("gc-copy")
    gc_refs_per_bin = bin_len  # the collector is memory-bound too

    rates = []
    mutator_index = 0
    for bin_id in range(N_BINS):
        before = hierarchy.bus.stats.c2c_transfers
        if bin_id in GC_BINS:
            # Stop-the-world: only processor 0 runs, copying survivors.
            refs = _collector_bin_refs(workload, collector_rng, gc_refs_per_bin)
            traces = [refs] + [[] for _ in range(N_PROCS - 1)]
        else:
            lo = mutator_index * bin_len
            hi = lo + bin_len
            traces = [t[lo:hi] for t in rest]
            mutator_index += 1
        hierarchy.run_trace(traces, quantum=sim.interleave_quantum)
        rates.append(hierarchy.bus.stats.c2c_transfers - before)

    peak = max(rates) or 1
    rows = [
        (bin_id, bin_id in GC_BINS, count, count / peak)
        for bin_id, count in enumerate(rates)
    ]
    return FigureResult(
        figure_id="fig10",
        title="C2C transfers per time bin (normalized), SPECjbb 8p",
        columns=["bin", "in GC", "c2c count", "normalized"],
        rows=rows,
        paper_claim=(
            "the C2C rate drops to almost zero during the three garbage "
            "collections in the window"
        ),
        series={"c2c_rate": [(b, c / peak) for b, c in enumerate(rates)]},
    )


def _collector_bin_refs(workload, rng, n_refs: int) -> list[int]:
    """Collector traffic for one GC bin.

    The collector walks from-space — addresses spread across every
    thread's allocation slice, long since evicted from the caches —
    and writes survivors into a fresh to-space in the old generation.
    Both streams are private to the collecting processor.
    """
    layout = workload.heap.layout
    from_lo = layout.new_gen_base
    from_span = layout.new_gen_size
    to_base = layout.old_gen_base + layout.old_gen_size // 2
    refs = GenerationalCollector.copy_ref_stream(
        from_base=from_lo + int(rng.integers(0, from_span // 2)) // 64 * 64,
        to_base=to_base,
        nbytes=(n_refs // 2) * 64,
    )
    return refs[:n_refs]


def checks(result: FigureResult) -> list[tuple[str, bool]]:
    """Shape assertions against the paper's claims."""
    gc_rates = [row[3] for row in result.rows if row[1]]
    mutator_rates = [row[3] for row in result.rows if not row[1]]
    avg_gc = sum(gc_rates) / len(gc_rates)
    avg_mut = sum(mutator_rates) / len(mutator_rates)
    return [
        ("GC bins' C2C rate under 20% of peak", max(gc_rates) < 0.2),
        ("GC-bin average far below mutator average", avg_gc < 0.25 * avg_mut),
    ]
