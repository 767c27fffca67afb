#!/usr/bin/env python3
"""Fault-tolerant campaign over the protocol/workload ablation matrix.

Declares the paper's ablation study as a run table — coherence
protocol x workload x repetitions — and executes it as a campaign on
the local worker pool (the one ``--jobs N`` runs on).  The scheduler
retries transient cell failures with capped, jittered backoff, kills
a worker whose cell runs past its wall-clock budget, quarantines
cells that repeatedly kill their worker, and journals every completed
cell so an interrupted campaign resumes without recomputing anything.  The final report aggregates repetitions into
mean +/- std per table point (the Alameldeen-Wood treatment of
run-to-run variability).

The same study is available from the command line:

    jmmw campaign run ablation --jobs 4
    jmmw campaign status ablation
    jmmw campaign report ablation

Run:  python examples/campaign_ablation.py
"""

from repro.campaign import CampaignPolicy, LocalPoolExecutor, run_campaign
from repro.campaign.report import render
from repro.campaign.studies import get_study
from repro.harness import FaultPolicy

#: Transient faults are retried up to 3 times with exponential backoff
#: capped at 2 s; deterministic jitter decorrelates retry storms.  A
#: cell still running after 120 s has its worker killed, and a cell
#: that kills two workers in a row is quarantined as poisoned rather
#: than allowed to grind down the respawn budget.
POLICY = CampaignPolicy(
    faults=FaultPolicy(
        timeout_s=120.0,
        max_attempts=3,
        backoff_s=0.05,
        backoff_factor=2.0,
        backoff_max_s=2.0,
        jitter=0.5,
    ),
    poison_k=2,
)


def main() -> None:
    # ``quick=True`` shrinks per-cell simulation effort so the example
    # finishes in tens of seconds; drop it for paper-scale statistics.
    spec = get_study("ablation", reps=2, quick=True)
    print(f"campaign '{spec.name}': {spec.table.shape()}")

    executor = LocalPoolExecutor(workers=2)
    result = run_campaign(spec, executor, policy=POLICY)
    print(render(result))
    if not result.complete:
        # Partial results are still reported — the degradation detail
        # names every missing cell and why it is missing.
        print("note: campaign degraded; rerun or --resume via the CLI")


if __name__ == "__main__":
    main()
