"""Deterministic campaign reports: mean ± std tables + degradation.

Per the Alameldeen–Wood variability discipline the paper's methodology
follows, a campaign's repetitions of one table point are summarized as
mean ± sample standard deviation per metric.  The report is rendered
*deterministically* — cell values only, no wall-clock times, no
timestamps, no worker ids — so a resumed campaign's report is
byte-identical to an uninterrupted one's, and two reports can be
diffed line by line.

Degradation is never silent: every cell that is not ``ok`` appears in
an explicit section with its status (``failed`` / ``poisoned`` /
``missing`` / ``pending``), its attempt count and the exact reason.
"""

from __future__ import annotations

import statistics
from collections import Counter

from repro.campaign.scheduler import CampaignResult, CellOutcome
from repro.core.report import render_table


def point_stem(outcome: CellOutcome) -> str:
    """The cell key minus its rep suffix: one row of the results table."""
    return "/".join(f"{name}={value}" for name, value in outcome.cell.point)


def summarize(result: CampaignResult) -> list[tuple[str, str, float, float, int]]:
    """``(point, metric, mean, std, n)`` rows over the ok repetitions.

    Rows follow table order (points outer-to-inner, metric names sorted
    within a point); only mapping-valued cells contribute metrics.
    Points with zero ok reps are absent here — they show up in the
    degradation section instead.
    """
    by_point: dict[str, list] = {}
    order: list[str] = []
    for outcome in result.outcomes:
        stem = point_stem(outcome)
        if stem not in by_point:
            by_point[stem] = []
            order.append(stem)
        if outcome.ok and isinstance(outcome.value, dict):
            by_point[stem].append(outcome.value)
    rows = []
    for stem in order:
        values = by_point[stem]
        if not values:
            continue
        metrics = sorted({name for value in values for name in value})
        for metric in metrics:
            samples = [
                float(value[metric]) for value in values if metric in value
            ]
            mean = statistics.mean(samples)
            std = statistics.stdev(samples) if len(samples) > 1 else 0.0
            rows.append((stem, metric, mean, std, len(samples)))
    return rows


def degradation_line(outcome: CellOutcome) -> str:
    """One cell that is not ``ok``: its status, key, attempts and reason."""
    attempts = f" after {outcome.attempts} attempt(s)" if outcome.attempts else ""
    return f"[{outcome.status}] {outcome.cell.key}{attempts}: {outcome.error}"


def render(result: CampaignResult) -> str:
    """The full campaign report (deterministic; see module docstring)."""
    counts = Counter(outcome.status for outcome in result.outcomes)
    total = len(result.outcomes)
    ok = counts.get("ok", 0)
    lines = [
        f"=== campaign {result.spec.name!r}: {result.spec.table.shape()} ===",
        f"executor: {result.executor_desc}",
    ]
    if ok == total:
        lines.append(f"status: complete ({ok}/{total} cells ok)")
    else:
        detail = ", ".join(
            f"{counts[status]} {status}"
            for status in ("failed", "poisoned", "missing", "pending")
            if counts.get(status)
        )
        lines.append(f"status: DEGRADED: {ok}/{total} cells ok ({detail})")

    rows = summarize(result)
    if rows:
        lines.append("")
        lines.append("results (mean +/- std over ok reps):")
        lines.append(
            render_table(
                ["point", "metric", "mean", "std", "n"],
                [
                    (stem, metric, f"{mean:.6g}", f"{std:.6g}", n)
                    for stem, metric, mean, std, n in rows
                ],
            )
        )

    bad = [outcome for outcome in result.outcomes if not outcome.ok]
    if bad:
        lines.append("")
        lines.append("degradation detail (cells NOT contributing above):")
        lines += [f"  {degradation_line(outcome)}" for outcome in bad]
    return "\n".join(lines)
