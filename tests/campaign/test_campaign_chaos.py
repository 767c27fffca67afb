"""Campaign chaos suite: the acceptance scenario.

A :class:`LocalPoolExecutor` campaign over the paper's ablation run
table survives, in a single run: a worker killed mid-cell, a worker
that hangs while it holds a lease, and one genuinely poisoned cell.
The hung lease is reclaimed at the per-cell wall-clock budget, the
poisoned cell is quarantined with diagnostics, every surviving cell's
bits match a clean serial run, and the report states the degradation
explicitly.
"""

from repro import obs
from repro.campaign import (
    Axis,
    CampaignPolicy,
    CampaignSpec,
    LocalPoolExecutor,
    RunTable,
    STATUS_POISONED,
    SerialExecutor,
    run_campaign,
)
from repro.campaign.report import render
from repro.campaign.studies import ablation_cell, smoke_cell
from repro.harness import FaultPolicy
from repro.harness.chaos import hang_task, kill_executor, poison_cell


def ablation_table(reps=2) -> RunTable:
    return RunTable(
        name="ablation",
        axes=(
            Axis("protocol", ("mosi", "msi")),
            Axis("workload", ("ecperf", "specjbb")),
        ),
        reps=reps,
    )


#: cell key -> injected failure mode for the acceptance scenario.
CHAOS_PLAN = {
    "protocol=mosi/workload=ecperf/rep1": "kill",
    "protocol=msi/workload=ecperf/rep0": "hang",
    "protocol=msi/workload=specjbb/rep1": "poison",
}


def chaotic_ablation_cell(point, rep, *, root, refs=6_000):
    """The real ablation cell, wrapped in the scripted chaos plan."""
    key = (
        f"protocol={point['protocol']}/workload={point['workload']}/rep{rep}"
    )
    mode = CHAOS_PLAN.get(key)
    name = key.replace("/", "_")
    if mode == "poison":
        return poison_cell(root, name, None)
    value = ablation_cell(point, rep, refs=refs)
    if mode == "kill":
        return kill_executor(root, name, value, 1)
    if mode == "hang":
        return hang_task(root, name, value, 60.0, 1)
    return value


def chaotic_smoke_cell(point, rep, *, root):
    """Same chaos shapes over arithmetic cells (fast regression net)."""
    mode = {"1": "kill", "2": "hang", "3": "poison"}.get(str(point["alpha"]))
    name = f"a{point['alpha']}-r{rep}"
    if mode == "poison" and rep == 0:
        return poison_cell(root, name, None)
    value = smoke_cell(point, rep)
    if mode == "kill" and rep == 0:
        return kill_executor(root, name, value, 1)
    if mode == "hang" and rep == 0:
        return hang_task(root, name, value, 60.0, 1)
    return value


def chaos_policy(timeout_s: float) -> CampaignPolicy:
    """Reclaim a hung lease at ``timeout_s`` and retry the cell.

    The budget must sit well above the slowest clean cell, or a clean
    cell would be killed too: the first ablation cell in a fresh worker
    takes about a second, building the coherence kernel included.
    """
    return CampaignPolicy(
        faults=FaultPolicy(
            max_attempts=4, backoff_s=0.0, timeout_s=timeout_s,
            retry_timeouts=True,
        ),
        poison_k=2,
    )


def test_pool_survives_death_hang_and_poison_bit_identically(tmp_path):
    """The acceptance criterion, end to end."""
    table = ablation_table(reps=2)
    chaotic = CampaignSpec(
        name="ablation", table=table, fn=chaotic_ablation_cell,
        kwargs={"root": str(tmp_path)},
    )
    clean = CampaignSpec(
        name="ablation", table=table, fn=ablation_cell, kwargs={"refs": 6_000}
    )
    result = run_campaign(
        chaotic,
        LocalPoolExecutor(workers=3, max_respawns=8),
        policy=chaos_policy(timeout_s=5.0),
    )
    reference = run_campaign(clean, SerialExecutor(), policy=chaos_policy(5.0))
    assert reference.complete

    # Exactly the poisoned cell is quarantined, with diagnostics.
    poisoned = result.by_status(STATUS_POISONED)
    assert [o.cell.key for o in poisoned] == [
        "protocol=msi/workload=specjbb/rep1"
    ]
    assert "quarantined" in poisoned[0].error
    assert "consecutive worker(s)" in poisoned[0].error

    # Every surviving cell is bit-identical to the clean serial run.
    by_key = {o.cell.key: o for o in result.outcomes}
    survivors = 0
    for ref_outcome in reference.outcomes:
        outcome = by_key[ref_outcome.cell.key]
        if outcome.cell.key in poisoned[0].cell.key:
            continue
        if outcome.ok:
            assert outcome.value == ref_outcome.value, outcome.cell.key
            survivors += 1
    assert survivors == len(table.cells()) - 1  # everything but the poison

    # The chaos left its fingerprints in the events: a dead worker
    # (kill_executor + poison kills), a reclaimed lease (the hang, at
    # its wall-clock budget), and the quarantined cell's count.
    assert obs.COUNTERS.get("run/broken-pool") >= 1
    assert obs.COUNTERS.get("task/timeout") >= 1
    assert obs.COUNTERS.get("campaign/cells_poisoned") == 1
    assert obs.COUNTERS.get("task/retry") >= 1

    # And the report states the degradation explicitly.
    report = render(result)
    assert "DEGRADED" in report
    assert "1 poisoned" in report
    assert "protocol=msi/workload=specjbb/rep1" in report
    assert "quarantined" in report


def test_smoke_chaos_fast_net(tmp_path, obs_enabled):
    """Same failure shapes over arithmetic cells, with obs counters on."""
    table = RunTable(
        name="smoke-chaos", axes=(Axis("alpha", (0, 1, 2, 3)),), reps=2
    )
    chaotic = CampaignSpec(
        name="smoke-chaos", table=table, fn=chaotic_smoke_cell,
        kwargs={"root": str(tmp_path)},
    )
    clean = CampaignSpec(name="smoke-chaos", table=table, fn=smoke_cell)

    result = run_campaign(
        chaotic,
        LocalPoolExecutor(workers=2, max_respawns=8),
        policy=chaos_policy(timeout_s=2.0),
    )
    reference = run_campaign(clean, SerialExecutor(), policy=chaos_policy(2.0))

    poisoned = result.by_status(STATUS_POISONED)
    assert [o.cell.key for o in poisoned] == ["alpha=3/rep0"]
    by_key = {o.cell.key: o for o in result.outcomes}
    for ref_outcome in reference.outcomes:
        if ref_outcome.cell.key == "alpha=3/rep0":
            continue
        assert by_key[ref_outcome.cell.key].value == ref_outcome.value

    # The task/* and campaign/* observability counters saw the whole story.
    snapshot = obs_enabled.COUNTERS.snapshot()
    assert snapshot["campaign/cells_total"] == table.n_cells * 2  # both runs
    assert snapshot["run/broken-pool"] >= 1
    assert snapshot["task/timeout"] >= 1
    assert snapshot["campaign/cells_poisoned"] == 1
    assert snapshot["task/retry"] >= 1
