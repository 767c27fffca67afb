"""The paper's headline claims (abstract + Section 7), checked directly.

Not a numbered figure: the abstract makes five quantified claims that
span several figures.  This driver measures each one from the same
simulation pipeline so the whole story can be verified in one run:

1. memory footprints and primary working sets are small;
2. a large fraction of the working sets is shared between processors
   (sharing misses exceed 60% of L2 misses on larger systems);
3. ECperf has a larger instruction footprint, with much higher miss
   rates for intermediate instruction caches;
4. SPECjbb's data set grows linearly with the benchmark size while
   ECperf's stays roughly constant;
5. the difference can flip memory-system design decisions (the 1 MB
   shared-cache CMP result).
"""

from __future__ import annotations

from repro.core.config import SimConfig
from repro.figures.common import (
    FIGURE_SIM,
    FigureResult,
    figure_trace,
    make_workload,
    simulate_multiprocessor,
    sweep_specs,
)
from repro.figures import fig16_sharedcache
from repro.harness.traceplane import TraceSpec
from repro.memsys.fastpath import block_stream
from repro.memsys.stackdist import StackDistanceProfiler


def trace_specs(sim: SimConfig) -> list[TraceSpec]:
    """Every trace :func:`run` replays, two per claim: claim 1's short
    uniprocessor traces, claim 2's at 14 processors, and claim 5's
    Figure 16 traces."""
    short = sim.with_refs(60_000)
    return (
        [TraceSpec(name, 4, 1, short) for name in ("specjbb", "ecperf")]
        + sweep_specs(sim, [14], ("specjbb", "ecperf"))
        + fig16_sharedcache.trace_specs(sim)
    )


def run(sim: SimConfig | None = None) -> FigureResult:
    """Measure the five abstract claims."""
    sim = sim if sim is not None else FIGURE_SIM
    specs = trace_specs(sim)
    working_set, sharing, design = specs[:2], specs[2:4], specs[4:]
    rows = []

    # Claim 1: primary working sets are small (90% of warm reuse, bytes).
    for spec in working_set:
        profiler = StackDistanceProfiler()
        profiler.feed(block_stream(figure_trace(spec).per_cpu[0], kind="data"))
        size_kb = profiler.working_set_size(0.9) * 64 / 1024
        rows.append(("working_set_90pct_kb", spec.workload, size_kb))

    # Claim 2: sharing misses at 14 processors.
    for spec in sharing:
        hierarchy = simulate_multiprocessor(figure_trace(spec), sim)
        rows.append(("c2c_miss_fraction_14p", spec.workload, hierarchy.c2c_ratio()))

    # Claim 3: instruction footprints.
    for name in ("specjbb", "ecperf"):
        rows.append(
            ("instr_footprint_kb", name, make_workload(name).code.total_code_bytes / 1024)
        )

    # Claim 4: data-set growth with the scale factor.
    for name in ("specjbb", "ecperf"):
        workload = make_workload(name)
        growth = workload.live_memory_mb(25) / workload.live_memory_mb(5)
        rows.append(("live_memory_growth_5_to_25", name, growth))

    # Claim 5: the shared-cache design flip (private vs fully shared).
    for (label, _name, _scale), spec in zip(fig16_sharedcache.CONFIGS, design):
        bundle = figure_trace(spec)
        private = simulate_multiprocessor(bundle, sim, procs_per_l2=1).data_mpki()
        shared = simulate_multiprocessor(bundle, sim, procs_per_l2=8).data_mpki()
        rows.append(("shared_over_private_mpki", label, shared / private))

    return FigureResult(
        figure_id="claims",
        title="Headline claims (abstract / Section 7)",
        columns=["claim metric", "workload", "value"],
        rows=rows,
        paper_claim=(
            "small working sets; >60% sharing misses at scale; ECperf's "
            "larger instruction footprint; SPECjbb's linear data growth; "
            "opposite shared-cache conclusions"
        ),
    )


def checks(result: FigureResult) -> list[tuple[str, bool]]:
    """Shape assertions against the paper's claims."""
    values = {(row[0], row[1]): row[2] for row in result.rows}
    return [
        (
            "working sets far below the 1 MB L2",
            values[("working_set_90pct_kb", "specjbb")] < 1024
            and values[("working_set_90pct_kb", "ecperf")] < 1024,
        ),
        (
            "sharing misses dominate at 14p (>40%)",
            values[("c2c_miss_fraction_14p", "specjbb")] > 0.40
            and values[("c2c_miss_fraction_14p", "ecperf")] > 0.40,
        ),
        (
            "ECperf instruction footprint >2x SPECjbb's",
            values[("instr_footprint_kb", "ecperf")]
            > 2 * values[("instr_footprint_kb", "specjbb")],
        ),
        (
            "SPECjbb data grows ~linearly, ECperf stays flat",
            values[("live_memory_growth_5_to_25", "specjbb")] > 2.5
            and values[("live_memory_growth_5_to_25", "ecperf")] < 1.3,
        ),
        (
            "shared 1 MB helps ECperf, hurts SPECjbb-25",
            values[("shared_over_private_mpki", "ecperf")] < 0.8
            and values[("shared_over_private_mpki", "specjbb-25")] > 1.1,
        ),
    ]
