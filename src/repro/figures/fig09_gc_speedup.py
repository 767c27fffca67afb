"""Figure 9: effect of garbage collection on throughput scaling.

Paper: subtracting collection time from the runtime gives a speedup
curve only slightly above the measured one — statistically
significant for ECperf up to 6 processors, insignificant elsewhere —
so GC accounts for only a fraction of the scaling loss.
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
    """Reproduce Figure 9."""
    sim = sim if sim is not None else FIGURE_SIM
    rows = []
    series: dict[str, list[tuple[float, float]]] = {}
    for name in WORKLOADS:
        model = throughput_model(name, sim)
        measured = []
        nogc = []
        for pt in model.curve(PAPER_PROC_SWEEP):
            gain = (pt.speedup_no_gc - pt.speedup) / pt.speedup
            rows.append((name, pt.n_procs, pt.speedup, pt.speedup_no_gc, gain))
            measured.append((pt.n_procs, pt.speedup))
            nogc.append((pt.n_procs, pt.speedup_no_gc))
        series[name] = measured
        series[f"{name}.no_gc"] = nogc
    return FigureResult(
        figure_id="fig09",
        title="Effect of garbage collection on throughput scaling",
        columns=["workload", "procs", "speedup", "speedup w/o GC", "GC gain"],
        rows=rows,
        paper_claim=(
            "GC-adjusted speedup only slightly higher; the difference does "
            "not explain the scaling loss"
        ),
        series=series,
    )


def checks(result: FigureResult) -> list[tuple[str, bool]]:
    """Shape assertions against the paper's claims."""
    out = []
    for name in ("ecperf", "specjbb"):
        measured = dict(result.series[name])
        nogc = dict(result.series[f"{name}.no_gc"])
        out.append((f"{name}: no-GC speedup >= measured everywhere",
                    all(nogc[p] >= measured[p] - 1e-9 for p in measured)))
        out.append((f"{name}: GC explains a minority of the loss at 15p",
                    (nogc[15] - measured[15]) < (15 - measured[15]) * 0.5))
    return out
