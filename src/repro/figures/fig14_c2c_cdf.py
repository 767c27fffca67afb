"""Figure 14: distribution of cache-to-cache transfers (percent of lines).

Paper: for SPECjbb, all transfers come from ~12% of the cache lines
touched in the measurement window, over 70% from the most active
0.1%, and the single hottest line carries ~20%.  ECperf's
communication is much flatter: the top 0.1% of lines carry only 56%,
the hottest line 14%, and transfers spread over about half of the
touched lines.
"""

from __future__ import annotations

from repro.analysis.cdf import CommunicationFootprint
from repro.core.config import SimConfig
from repro.figures.common import (
    FIGURE_SIM,
    FigureResult,
    figure_trace,
    simulate_multiprocessor,
    sweep_specs,
)

N_PROCS = 8


def trace_specs(sim: SimConfig):
    """The traces :func:`footprints` replays (shared with Figure 15)."""
    return sweep_specs(sim, [N_PROCS])


def footprints(sim: SimConfig) -> dict[str, CommunicationFootprint]:
    """Communication footprints from 8-processor simulations."""
    out = {}
    for spec in trace_specs(sim):
        hierarchy = simulate_multiprocessor(figure_trace(spec), sim)
        stats = hierarchy.bus.stats
        out[spec.workload] = CommunicationFootprint(
            c2c_by_line=dict(stats.c2c_by_line),
            touched_lines=len(stats.touched_lines),
        )
    return out


def run(sim: SimConfig | None = None) -> FigureResult:
    """Reproduce Figure 14."""
    sim = sim if sim is not None else FIGURE_SIM
    rows = []
    series = {}
    for name, fp in footprints(sim).items():
        rows.append(
            (
                name,
                fp.hottest_line_share(),
                fp.share_from_top_fraction(0.001),
                fp.communicating_fraction,
                fp.total_transfers,
            )
        )
        series[name] = fp.cdf_percent_of_touched()[:2000]
    return FigureResult(
        figure_id="fig14",
        title="Distribution of C2C transfers vs % of touched lines (8p)",
        columns=[
            "workload",
            "hottest line share",
            "top 0.1% share",
            "communicating frac",
            "transfers",
        ],
        rows=rows,
        paper_claim=(
            "SPECjbb: hottest line ~20%, top 0.1% ~70%, all C2C from ~12% of "
            "lines; ECperf: hottest 14%, top 0.1% 56%, spread over ~half"
        ),
        series=series,
    )


def checks(result: FigureResult) -> list[tuple[str, bool]]:
    """Shape assertions against the paper's claims."""
    by_name = {row[0]: row for row in result.rows}
    jbb, ec = by_name["specjbb"], by_name["ecperf"]
    return [
        ("specjbb hottest line carries 10-35%", 0.10 <= jbb[1] <= 0.35),
        ("ecperf hottest line cooler than specjbb's", ec[1] < jbb[1]),
        # NOTE: "top 0.1% of touched lines" is scale-dependent — the
        # paper's window touches ~50x more lines than our traces, so
        # the same 0.1% covers far more hot lines there.  The shape
        # statement preserved here: a tiny hot core dominates SPECjbb.
        ("specjbb top 0.1% of lines dominates (>25%)", jbb[2] > 0.25),
        ("ecperf flatter than specjbb at top 0.1%", ec[2] < jbb[2]),
        ("ecperf spreads over a larger fraction of lines",
         ec[3] > 1.5 * jbb[3]),
    ]
