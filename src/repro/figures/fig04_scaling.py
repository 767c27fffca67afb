"""Figure 4: throughput speedup vs. processor count on the E6000.

Paper: ECperf scales super-linearly from 1 to 8 processors, peaks at
a speedup of roughly 10 on 12 processors, then degrades; SPECjbb
scales more gradually and levels off around 7 by 10 processors.
"""

from __future__ import annotations

from repro.core.config import SimConfig
from repro.figures.common import (
    FIGURE_SIM,
    PAPER_PROC_SWEEP,
    WORKLOADS,
    FigureResult,
    anchor_specs as trace_specs,  # noqa: F401 (the anchors run replays)
    throughput_model,
)


def run(sim: SimConfig | None = None) -> FigureResult:
    """Reproduce Figure 4."""
    sim = sim if sim is not None else FIGURE_SIM
    rows = []
    series: dict[str, list[tuple[float, float]]] = {}
    for name in WORKLOADS:
        model = throughput_model(name, sim)
        points = model.curve(PAPER_PROC_SWEEP)
        series[name] = [(pt.n_procs, pt.speedup) for pt in points]
        for pt in points:
            rows.append((name, pt.n_procs, pt.speedup, pt.path_relative))
    return FigureResult(
        figure_id="fig04",
        title="Throughput scaling on a Sun E6000",
        columns=["workload", "procs", "speedup", "rel. path length"],
        rows=rows,
        paper_claim=(
            "ECperf super-linear 1->8, peak ~10 @12p, degrades after; "
            "SPECjbb gradual, levels ~7 by 10p"
        ),
        notes=(
            "speedups combine simulated CPI(p) with the path-length, "
            "contention, kernel and GC models (DESIGN.md section 5.4)"
        ),
        series=series,
    )


def checks(result: FigureResult) -> list[tuple[str, bool]]:
    """Shape assertions against the paper's claims."""
    ec = dict((p, s) for p, s in result.series["ecperf"])
    jbb = dict((p, s) for p, s in result.series["specjbb"])
    peak_p = max(ec, key=ec.get)
    return [
        ("ecperf super-linear at 8p (S > 8)", ec[8] > 8.0),
        ("ecperf peak near 12p", peak_p in (10, 12, 14)),
        ("ecperf degrades past its peak", ec[15] < max(ec.values())),
        ("specjbb levels off near 7", 6.0 <= max(jbb.values()) <= 8.5),
        ("specjbb below ecperf at every p>1", all(jbb[p] <= ec[p] for p in ec if p > 1)),
    ]
