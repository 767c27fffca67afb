"""Figure 6: CPI breakdown vs. processor count.

Paper: overall CPI ranges 1.8-2.4 (SPECjbb) and 2.0-2.8 (ECperf),
rising ~33%/~40% from 1 to 15 processors; data stall time is the main
contributor, growing from 12%/15% of execution to 25%/35%.
"""

from __future__ import annotations

from repro.core.config import SimConfig
from repro.cpu import InOrderCpuModel
from repro.figures.common import (
    FIGURE_SIM,
    FigureResult,
    figure_trace,
    simulate_multiprocessor,
    sweep_specs,
)

#: Processor counts actually simulated (the paper's axis, thinned for cost).
CPI_SWEEP = [1, 2, 4, 8, 12, 15]


def trace_specs(sim: SimConfig, sweep: list[int] | None = None):
    """One official-run trace per workload and processor count."""
    return sweep_specs(sim, sweep if sweep is not None else CPI_SWEEP)


def run(sim: SimConfig | None = None, sweep: list[int] | None = None) -> FigureResult:
    """Reproduce Figure 6."""
    sim = sim if sim is not None else FIGURE_SIM
    model = InOrderCpuModel()
    rows = []
    series: dict[str, list[tuple[float, float]]] = {}
    for spec in trace_specs(sim, sweep):
        hierarchy = simulate_multiprocessor(figure_trace(spec), sim)
        cpi = model.cpi_for_machine(hierarchy)
        rows.append(
            (
                spec.workload,
                spec.n_procs,
                cpi.total,
                cpi.instruction_stall,
                cpi.data_stall.total,
                cpi.other,
                cpi.data_stall_fraction,
            )
        )
        series.setdefault(spec.workload, []).append((spec.n_procs, cpi.total))
    return FigureResult(
        figure_id="fig06",
        title="CPI breakdown vs processors",
        columns=[
            "workload",
            "procs",
            "CPI",
            "instr stall",
            "data stall",
            "other",
            "data frac",
        ],
        rows=rows,
        paper_claim=(
            "CPI 1.8-2.4 (jbb) / 2.0-2.8 (ecperf); +33%/+40% from 1 to 15p; "
            "data stall 12->25% / 15->35% of execution"
        ),
        series=series,
    )


def checks(result: FigureResult) -> list[tuple[str, bool]]:
    """Shape assertions against the paper's claims."""

    def cpi(name, p):
        for row in result.rows:
            if row[0] == name and row[1] == p:
                return row
        raise KeyError((name, p))

    jbb1, jbb15 = cpi("specjbb", 1), cpi("specjbb", 15)
    ec1, ec15 = cpi("ecperf", 1), cpi("ecperf", 15)
    return [
        ("specjbb CPI in a moderate band", 1.6 <= jbb1[2] <= 2.2 and 1.9 <= jbb15[2] <= 2.8),
        ("ecperf CPI in a moderate band", 1.9 <= ec1[2] <= 2.7 and 2.3 <= ec15[2] <= 3.2),
        ("ecperf CPI above specjbb", ec1[2] > jbb1[2] and ec15[2] > jbb15[2]),
        ("CPI grows with processors (>10%)", jbb15[2] > 1.10 * jbb1[2] and ec15[2] > 1.10 * ec1[2]),
        ("data stall fraction grows", jbb15[6] > jbb1[6] and ec15[6] > ec1[6]),
        ("data stall is main growth term", (jbb15[4] - jbb1[4]) > (jbb15[3] - jbb1[3])),
    ]
