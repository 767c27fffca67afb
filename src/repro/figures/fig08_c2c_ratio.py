"""Figure 8: cache-to-cache transfer ratio vs. processor count.

Paper: the fraction of L2 misses that hit in another processor's
cache starts around 25% for two processors and rises past 60% by
fourteen; even "1-processor" runs show copybacks, because the OS
keeps running on processors outside the processor set.
"""

from __future__ import annotations

from repro.core.config import SimConfig
from repro.figures.common import (
    FIGURE_SIM,
    FigureResult,
    figure_trace,
    simulate_multiprocessor,
    sweep_specs,
)

C2C_SWEEP = [1, 2, 4, 6, 8, 10, 12, 14]


def trace_specs(sim: SimConfig, sweep: list[int] | None = None):
    """One official-run trace per workload and processor count."""
    return sweep_specs(sim, sweep if sweep is not None else C2C_SWEEP)


def run(sim: SimConfig | None = None, sweep: list[int] | None = None) -> FigureResult:
    """Reproduce Figure 8."""
    sim = sim if sim is not None else FIGURE_SIM
    rows = []
    series: dict[str, list[tuple[float, float]]] = {}
    for spec in trace_specs(sim, sweep):
        # The OS runs on processors outside the set (psrset), which is
        # what makes the 1-processor ratio non-zero.
        hierarchy = simulate_multiprocessor(
            figure_trace(spec), sim, include_os_processor=True
        )
        ratio = hierarchy.c2c_ratio()
        rows.append((spec.workload, spec.n_procs, ratio, hierarchy.total_l2_misses))
        series.setdefault(spec.workload, []).append((spec.n_procs, ratio))
    return FigureResult(
        figure_id="fig08",
        title="Cache-to-cache transfer ratio vs processors",
        columns=["workload", "procs", "c2c ratio", "L2 misses"],
        rows=rows,
        paper_claim=(
            "~25% at 2p rising past 60% by 14p; non-zero at 1p because the "
            "OS runs outside the processor set"
        ),
        series=series,
    )


def checks(result: FigureResult) -> list[tuple[str, bool]]:
    """Shape assertions against the paper's claims."""
    out = []
    for name in ("ecperf", "specjbb"):
        ratios = dict((p, r) for p, r in result.series[name])
        out.append((f"{name}: ratio > 0 at 1p (OS effect)", ratios[1] > 0.0))
        out.append((f"{name}: ratio 2p in 10-50% band", 0.10 <= ratios[2] <= 0.50))
        out.append((f"{name}: ratio rises monotonically 2->14p",
                    all(ratios[a] <= ratios[b] + 0.03
                        for a, b in zip([2, 4, 6, 8, 10, 12], [4, 6, 8, 10, 12, 14]))))
        out.append((f"{name}: ratio @14p above 35%", ratios[14] > 0.35))
    return out
