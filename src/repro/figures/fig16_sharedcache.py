"""Figure 16: data miss rate with shared L2 caches (the CMP study).

Paper: eight processors, four memory hierarchies — private 1 MB L2s,
then 2, 4 and 8 processors per shared 1 MB L2 (total capacity shrinks
as sharing grows).  For ECperf, eliminating coherence misses more than
pays for the lost capacity: the single fully-shared 1 MB cache has the
*lowest* miss rate, with one eighth the total capacity.  SPECjbb-25's
much larger data set goes the other way: sharing raises its miss rate.
This is the paper's headline design-divergence result.
"""

from __future__ import annotations

from repro.core.config import SimConfig
from repro.figures.common import (
    FIGURE_SIM,
    FigureResult,
    figure_trace,
    simulate_multiprocessor,
)
from repro.harness.traceplane import TraceSpec

N_PROCS = 8
SHARING = [1, 2, 4, 8]

CONFIGS = [
    ("ecperf", "ecperf", 8),
    ("specjbb-25", "specjbb", 25),
]


def trace_specs(sim: SimConfig):
    """The traces this figure replays: one 8-CPU bundle per workload.

    All four cache-sharing levels replay the *same* trace, fetched once.
    """
    return [
        TraceSpec(workload=name, scale=scale, n_procs=N_PROCS, sim=sim)
        for _label, name, scale in CONFIGS
    ]


def run(sim: SimConfig | None = None) -> FigureResult:
    """Reproduce Figure 16."""
    sim = sim if sim is not None else FIGURE_SIM
    rows = []
    series = {}
    for (label, _name, _scale), spec in zip(CONFIGS, trace_specs(sim)):
        points = []
        bundle = figure_trace(spec)
        for procs_per_l2 in SHARING:
            hierarchy = simulate_multiprocessor(bundle, sim, procs_per_l2=procs_per_l2)
            mpki = hierarchy.data_mpki()
            rows.append(
                (
                    label,
                    procs_per_l2,
                    N_PROCS // procs_per_l2,
                    mpki,
                    hierarchy.c2c_ratio(),
                )
            )
            points.append((procs_per_l2, mpki))
        series[label] = points
    return FigureResult(
        figure_id="fig16",
        title="Data miss rate on shared 1 MB L2 caches (8 processors)",
        columns=["workload", "procs/L2", "n caches", "data MPKI", "c2c ratio"],
        rows=rows,
        paper_claim=(
            "ECperf improves monotonically with sharing (fully shared 1 MB "
            "is best at 1/8 capacity); SPECjbb-25 degrades with sharing"
        ),
        series=series,
    )


def checks(result: FigureResult) -> list[tuple[str, bool]]:
    """Shape assertions against the paper's claims."""
    ec = dict((ppl, m) for ppl, m in result.series["ecperf"])
    jbb = dict((ppl, m) for ppl, m in result.series["specjbb-25"])
    return [
        ("ecperf: fully shared beats private", ec[8] < ec[1]),
        ("ecperf: sharing trend is downward", ec[8] <= ec[2] + 0.1),
        ("specjbb-25: fully shared loses to private", jbb[8] > jbb[1]),
        ("opposite design conclusions", (ec[8] < ec[1]) and (jbb[8] > jbb[1])),
    ]
