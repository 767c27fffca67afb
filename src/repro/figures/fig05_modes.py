"""Figure 5: execution-mode breakdown vs. processor count.

Paper: ECperf's system time grows from under 5% (1 processor) to
nearly 30% (15); SPECjbb spends essentially none.  Both incur
significant idle time on larger systems (~25% at 15 processors), of
which garbage collection explains only a fraction.
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
    """Reproduce Figure 5."""
    sim = sim if sim is not None else FIGURE_SIM
    rows = []
    series: dict[str, list[tuple[float, float]]] = {}
    for name in WORKLOADS:
        model = throughput_model(name, sim)
        sys_points = []
        for pt in model.curve(PAPER_PROC_SWEEP):
            md = pt.modes
            rows.append(
                (
                    name,
                    pt.n_procs,
                    md.user,
                    md.system,
                    md.io,
                    md.gc_idle,
                    md.other_idle,
                )
            )
            sys_points.append((pt.n_procs, md.system))
        series[f"{name}.system"] = sys_points
    return FigureResult(
        figure_id="fig05",
        title="Execution mode breakdown vs processors",
        columns=["workload", "procs", "user", "system", "io", "gc idle", "other idle"],
        rows=rows,
        paper_claim=(
            "ECperf system time <5% @1p -> ~30% @15p; SPECjbb ~none; "
            "idle ~25% @15p for both, mostly NOT garbage collection"
        ),
        series=series,
    )


def checks(result: FigureResult) -> list[tuple[str, bool]]:
    """Shape assertions against the paper's claims."""
    by_key = {
        (row[0], row[1]): row for row in result.rows
    }
    ec1 = by_key[("ecperf", 1)]
    ec15 = by_key[("ecperf", 15)]
    jbb15 = by_key[("specjbb", 15)]
    return [
        ("ecperf system small at 1p (<6%)", ec1[3] < 0.06),
        ("ecperf system large at 15p (>15%)", ec15[3] > 0.15),
        ("specjbb system ~zero", jbb15[3] < 0.01),
        ("both workloads idle >15% at 15p", ec15[5] + ec15[6] > 0.15 and jbb15[5] + jbb15[6] > 0.15),
        ("GC idle is a minority of idle", ec15[5] < ec15[6] + ec15[5]),
    ]
