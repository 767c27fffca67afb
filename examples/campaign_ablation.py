#!/usr/bin/env python3
"""Fault-tolerant campaign over the protocol/workload ablation matrix.

Declares the paper's ablation study as a run table — coherence
protocol x workload x repetitions — and executes it as a campaign on
a subprocess fleet.  The scheduler retries transient cell failures
with capped, jittered backoff, reclaims leases from wedged workers,
quarantines cells that repeatedly kill their executor, and journals
every completed cell so an interrupted campaign resumes without
recomputing anything.  The final report aggregates repetitions into
mean +/- std per table point (the Alameldeen-Wood treatment of
run-to-run variability).

The same study is available from the command line:

    jmmw campaign run ablation --executor fleet --jobs 4
    jmmw campaign status ablation
    jmmw campaign report ablation

Run:  python examples/campaign_ablation.py
"""

from repro.campaign import (
    CampaignPolicy,
    SubprocessFleetExecutor,
    run_campaign,
)
from repro.campaign.report import render
from repro.campaign.studies import get_study
from repro.harness import FaultPolicy

#: Transient faults are retried up to 3 times with exponential backoff
#: capped at 2 s; deterministic jitter decorrelates retry storms.  A
#: cell that kills two executors in a row is quarantined as poisoned
#: rather than allowed to grind down the respawn budget.
POLICY = CampaignPolicy(
    faults=FaultPolicy(
        max_attempts=3,
        backoff_s=0.05,
        backoff_factor=2.0,
        backoff_max_s=2.0,
        jitter=0.5,
    ),
    lease_timeout_s=10.0,
    poison_k=2,
)


def main() -> None:
    # ``quick=True`` shrinks per-cell simulation effort so the example
    # finishes in tens of seconds; drop it for paper-scale statistics.
    spec = get_study("ablation", reps=2, quick=True)
    print(f"campaign '{spec.name}': {spec.table.shape()}")

    executor = SubprocessFleetExecutor(workers=2)
    result = run_campaign(spec, executor, policy=POLICY)
    print(render(result))
    if not result.complete:
        # Partial results are still reported — the degradation detail
        # names every missing cell and why it is missing.
        print("note: campaign degraded; rerun or --resume via the CLI")


if __name__ == "__main__":
    main()
