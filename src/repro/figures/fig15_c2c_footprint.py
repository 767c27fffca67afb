"""Figure 15: distribution of C2C transfers vs. absolute line count.

Paper (semi-log x): even though SPECjbb touches more total data,
ECperf's *communication* footprint is larger in absolute terms — it
takes more cache lines to cover any given share of ECperf's transfers.
"""

from __future__ import annotations

from repro.core.config import SimConfig
from repro.figures.common import FIGURE_SIM, FigureResult
# trace_specs is re-exported: the same footprints as Figure 14, from
# the same 8-processor traces.
from repro.figures.fig14_c2c_cdf import footprints, trace_specs  # noqa: F401


def run(sim: SimConfig | None = None) -> FigureResult:
    """Reproduce Figure 15."""
    sim = sim if sim is not None else FIGURE_SIM
    rows = []
    series = {}
    for name, fp in footprints(sim).items():
        rows.append(
            (
                name,
                fp.lines_for_share(0.5),
                fp.lines_for_share(0.7),
                fp.lines_for_share(0.9),
                fp.communicating_lines,
            )
        )
        series[name] = fp.cdf_absolute_lines()[:4000]
    return FigureResult(
        figure_id="fig15",
        title="Distribution of C2C transfers vs absolute lines (8p, semi-log)",
        columns=[
            "workload",
            "lines for 50%",
            "lines for 70%",
            "lines for 90%",
            "communicating lines",
        ],
        rows=rows,
        paper_claim=(
            "ECperf's communication footprint is larger than SPECjbb's on an "
            "absolute, not just percentage, basis"
        ),
        series=series,
    )


def checks(result: FigureResult) -> list[tuple[str, bool]]:
    """Shape assertions against the paper's claims."""
    by_name = {row[0]: row for row in result.rows}
    jbb, ec = by_name["specjbb"], by_name["ecperf"]
    return [
        ("ecperf needs more lines for 50% of transfers", ec[1] > jbb[1]),
        ("ecperf needs more lines for 90% of transfers", ec[3] > jbb[3]),
        ("ecperf has more communicating lines overall", ec[4] > jbb[4]),
    ]
