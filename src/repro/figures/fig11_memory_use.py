"""Figure 11: live memory vs. scale factor.

Paper: SPECjbb's heap after collection grows linearly with the
warehouse count up to ~30 (the emulated database lives in the heap),
then *decreases* as the generational collector starts compacting the
older generations — at a steep throughput cost.  ECperf's memory use
rises only until an Orders Injection Rate of ~6 and stays roughly
constant through 40: the growing database lives on another machine.
"""

from __future__ import annotations

from repro.core.config import SimConfig
from repro.figures.common import FigureResult, make_workload

SCALES = list(range(1, 41))


def trace_specs(sim: SimConfig):
    """None: the live-memory curves are model outputs, not trace stats."""
    return []


def run(sim: SimConfig | None = None) -> FigureResult:
    """Reproduce Figure 11 (analytic heap model; no trace simulation)."""
    del sim  # no traces: see trace_specs
    rows = []
    series: dict[str, list[tuple[float, float]]] = {"specjbb": [], "ecperf": []}
    jbb = make_workload("specjbb", scale=1)
    ecperf = make_workload("ecperf", scale=1)
    for scale in SCALES:
        jbb_mb = jbb.live_memory_mb(scale)
        ec_mb = ecperf.live_memory_mb(scale)
        rows.append((scale, jbb_mb, ec_mb))
        series["specjbb"].append((scale, jbb_mb))
        series["ecperf"].append((scale, ec_mb))
    return FigureResult(
        figure_id="fig11",
        title="Live memory (MB) vs scale factor",
        columns=["scale", "specjbb MB", "ecperf MB"],
        rows=rows,
        paper_claim=(
            "SPECjbb linear to ~30 warehouses (~500 MB) then decreases "
            "(old-gen compaction); ECperf rises to IR~6 then flat through 40"
        ),
        series=series,
    )


def checks(result: FigureResult) -> list[tuple[str, bool]]:
    """Shape assertions against the paper's claims."""
    jbb = dict((s, v) for s, v in result.series["specjbb"])
    ec = dict((s, v) for s, v in result.series["ecperf"])
    # Linearity of SPECjbb's growth over 5..30.
    slope_lo = (jbb[15] - jbb[5]) / 10
    slope_hi = (jbb[30] - jbb[20]) / 10
    return [
        ("specjbb grows linearly to 30 wh", abs(slope_hi - slope_lo) < 0.2 * slope_lo),
        ("specjbb reaches several hundred MB at 30 wh", 350 <= jbb[30] <= 700),
        ("specjbb decreases past 30 wh", jbb[35] < jbb[30] and jbb[40] <= jbb[35]),
        ("ecperf knees by IR ~6", (ec[6] - ec[1]) > 10 * (ec[12] - ec[7])),
        ("ecperf roughly flat 10..40", (ec[40] - ec[10]) < 0.1 * ec[10]),
        ("specjbb far exceeds ecperf at scale 25", jbb[25] > 2.5 * ec[25]),
    ]
