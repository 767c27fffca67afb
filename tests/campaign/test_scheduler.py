"""Campaign scheduler: retries, quarantine, degradation, resume.

Fast-by-construction: every test drives the scheduler with the
arithmetic ``smoke_cell`` (or a scripted chaos wrapper around it), so
the suite exercises the full fault machinery in a few seconds.
"""

import os
import time

import pytest

from repro import obs
from repro.campaign import (
    Axis,
    CampaignPolicy,
    CampaignSpec,
    LocalPoolExecutor,
    RunTable,
    STATUS_FAILED,
    STATUS_MISSING,
    STATUS_POISONED,
    SerialExecutor,
    run_campaign,
)
from repro.campaign.report import render, summarize
from repro.campaign.studies import smoke_cell
from repro.harness import CampaignManifest, FaultPolicy
from repro.harness.chaos import error_task, hang_task, kill_executor, take_ticket


def fast_policy(**overrides) -> CampaignPolicy:
    defaults = dict(faults=FaultPolicy(max_attempts=3, backoff_s=0.0))
    defaults.update(overrides)
    return CampaignPolicy(**defaults)


def small_table(reps=1, points=2) -> RunTable:
    return RunTable(
        name="t", axes=(Axis("alpha", tuple(range(points))),), reps=reps
    )


def cell_name(point: dict, rep: int) -> str:
    return "-".join(f"{k}{v}" for k, v in sorted(point.items())) + f"-r{rep}"


# -- scripted chaos cells (module-level: workers pickle them by name) --------


def flaky_cell(point, rep, *, root, fail_attempts=1):
    return error_task(
        root, cell_name(point, rep), smoke_cell(point, rep), fail_attempts
    )


def killer_cell(point, rep, *, root, victim, kill_attempts=1):
    value = smoke_cell(point, rep)
    if point["alpha"] == victim:
        return kill_executor(root, cell_name(point, rep), value, kill_attempts)
    return value


def slow_cell(point, rep, *, root, victim, sleep_s):
    if point["alpha"] == victim and take_ticket(root, cell_name(point, rep)) == 0:
        time.sleep(sleep_s)
    return smoke_cell(point, rep)


def hanging_cell(point, rep, *, root, victim, hang_s, hang_attempts=1):
    value = smoke_cell(point, rep)
    if point["alpha"] == victim:
        return hang_task(root, cell_name(point, rep), value, hang_s, hang_attempts)
    return value


def counting_cell(point, rep, *, root):
    take_ticket(root, cell_name(point, rep))
    return smoke_cell(point, rep)


def observed_cell(point, rep):
    from repro import obs

    obs.incr("test/cell_points")
    return smoke_cell(point, rep)


def dying_cell(point, rep):
    os._exit(17)  # simulates a segfaulting / OOM-killed worker


# -- the basics --------------------------------------------------------------


def test_serial_campaign_completes_in_table_order():
    spec = CampaignSpec(name="s", table=small_table(reps=2, points=3), fn=smoke_cell)
    result = run_campaign(spec, SerialExecutor(), policy=fast_policy())
    assert result.complete and not result.degraded
    assert [o.cell.key for o in result.outcomes] == [
        c.key for c in spec.table.cells()
    ]
    assert all(o.ok and isinstance(o.value, dict) for o in result.outcomes)


@pytest.mark.parametrize(
    "make_executor", [lambda: LocalPoolExecutor(workers=2)], ids=["local"]
)
def test_executors_bit_identical_to_serial(make_executor):
    spec = CampaignSpec(name="s", table=small_table(reps=2, points=2), fn=smoke_cell)
    reference = run_campaign(spec, SerialExecutor(), policy=fast_policy())
    result = run_campaign(spec, make_executor(), policy=fast_policy())
    assert result.complete
    assert [(o.cell.key, o.value) for o in result.outcomes] == [
        (o.cell.key, o.value) for o in reference.outcomes
    ]


def test_transient_error_retried_with_backoff(tmp_path):
    spec = CampaignSpec(
        name="s", table=small_table(points=2), fn=flaky_cell,
        kwargs={"root": str(tmp_path)},
    )
    result = run_campaign(
        spec, SerialExecutor(), policy=fast_policy()
    )
    assert result.complete
    assert all(o.attempts == 2 for o in result.outcomes)
    assert obs.COUNTERS.get("task/retry") == 2
    assert obs.COUNTERS.get("campaign/cells_ok") == 2


def test_persistent_error_exhausts_budget_and_fails_cell(tmp_path):
    spec = CampaignSpec(
        name="s", table=small_table(points=2), fn=flaky_cell,
        kwargs={"root": str(tmp_path), "fail_attempts": 99},
    )
    result = run_campaign(spec, SerialExecutor(), policy=fast_policy())
    assert result.degraded
    failed = result.by_status(STATUS_FAILED)
    assert len(failed) == 2
    assert all(o.attempts == 3 for o in failed)
    assert all("ChaosError" in o.error for o in failed)
    # A survivable error is not a worker kill: nothing was quarantined.
    assert not result.by_status(STATUS_POISONED)


# -- worker death and quarantine ---------------------------------------------


def test_worker_death_reschedules_cell_and_respawns(tmp_path):
    spec = CampaignSpec(
        name="s", table=small_table(points=3), fn=killer_cell,
        kwargs={"root": str(tmp_path), "victim": 1},
    )
    result = run_campaign(
        spec, LocalPoolExecutor(workers=2), policy=fast_policy(),
    )
    assert result.complete
    clean = run_campaign(spec, SerialExecutor(), policy=fast_policy())
    # tickets consumed by the serial run shift nothing: alpha=1 already
    # spent its one kill, so serial recomputes the same values.
    assert [o.value for o in result.outcomes] == [o.value for o in clean.outcomes]
    assert obs.COUNTERS.get("run/broken-pool") >= 1
    assert obs.COUNTERS.get("task/retry") >= 1


def test_poisoned_cell_is_quarantined_with_diagnostics(tmp_path):
    spec = CampaignSpec(
        name="s", table=small_table(points=3), fn=killer_cell,
        kwargs={"root": str(tmp_path), "victim": 2, "kill_attempts": 99},
    )
    result = run_campaign(
        spec,
        LocalPoolExecutor(workers=2, max_respawns=6),
        policy=fast_policy(faults=FaultPolicy(max_attempts=5, backoff_s=0.0)),
    )
    poisoned = result.by_status(STATUS_POISONED)
    assert len(poisoned) == 1
    assert poisoned[0].cell.point_dict["alpha"] == 2
    assert "quarantined" in poisoned[0].error
    assert "killed 2 consecutive worker(s)" in poisoned[0].error
    assert obs.COUNTERS.get("campaign/cells_poisoned") == 1
    # The other cells survived the chaos untouched.
    assert sum(1 for o in result.outcomes if o.ok) == 2
    assert "poisoned" in render(result)


def test_respawn_budget_exhaustion_degrades_gracefully(tmp_path):
    spec = CampaignSpec(
        name="s", table=small_table(points=3), fn=killer_cell,
        kwargs={"root": str(tmp_path), "victim": 0, "kill_attempts": 99},
    )
    result = run_campaign(
        spec,
        LocalPoolExecutor(workers=1, max_respawns=0),
        policy=fast_policy(),
    )
    # One worker, no respawns: the first kill ends all capacity and the
    # campaign shrinks to a partial result instead of hanging.
    assert result.degraded
    missing = result.by_status(STATUS_MISSING)
    assert missing and all("no surviving workers" in o.error for o in missing)
    assert obs.COUNTERS.get("campaign/degraded") == 1
    report = render(result)
    assert "DEGRADED" in report and "missing" in report


# -- timeouts ----------------------------------------------------------------


def test_lease_timeout_kills_hung_worker_not_retried(tmp_path):
    spec = CampaignSpec(
        name="s", table=small_table(points=2), fn=hanging_cell,
        kwargs={"root": str(tmp_path), "victim": 0, "hang_s": 30.0},
    )
    t0 = time.monotonic()
    result = run_campaign(
        spec,
        LocalPoolExecutor(workers=2),
        policy=fast_policy(faults=FaultPolicy(timeout_s=0.4, backoff_s=0.0)),
    )
    assert time.monotonic() - t0 < 15.0
    failed = result.by_status(STATUS_FAILED)
    assert len(failed) == 1
    assert "timeout" in failed[0].error and "worker killed" in failed[0].error
    assert sum(1 for o in result.outcomes if o.ok) == 1


def test_lease_timeout_retried_when_policy_allows(tmp_path):
    spec = CampaignSpec(
        name="s", table=small_table(points=2), fn=hanging_cell,
        kwargs={"root": str(tmp_path), "victim": 0, "hang_s": 30.0},
    )
    result = run_campaign(
        spec,
        LocalPoolExecutor(workers=2),
        policy=fast_policy(
            faults=FaultPolicy(
                timeout_s=0.4, max_attempts=3, backoff_s=0.0,
                retry_timeouts=True,
            )
        ),
    )
    assert result.complete  # the hang was scripted for one attempt only


# -- resume ------------------------------------------------------------------


def test_resume_serves_completed_cells_without_rerunning(tmp_path):
    root = tmp_path / "tickets"
    spec = CampaignSpec(
        name="s", table=small_table(reps=2, points=2), fn=counting_cell,
        kwargs={"root": str(root)},
    )
    journal = tmp_path / "campaign.jsonl"
    with CampaignManifest.open_fresh(journal, spec.signature()) as manifest:
        first = run_campaign(
            spec, SerialExecutor(), policy=fast_policy(), manifest=manifest
        )
    assert first.complete
    invocations = len(list(root.iterdir()))
    assert invocations == 4
    with CampaignManifest.open_resume(journal, spec.signature()) as manifest:
        assert manifest.resumed
        second = run_campaign(
            spec, SerialExecutor(), policy=fast_policy(),
            manifest=manifest,
        )
    assert second.complete
    assert len(list(root.iterdir())) == invocations  # nothing re-ran
    assert all(o.cached for o in second.outcomes)
    assert obs.COUNTERS.get("resume/skip") == 4
    assert [o.value for o in second.outcomes] == [o.value for o in first.outcomes]


# -- report ------------------------------------------------------------------


def test_report_mean_std_over_reps():
    spec = CampaignSpec(name="s", table=small_table(reps=3, points=1), fn=smoke_cell)
    result = run_campaign(spec, SerialExecutor(), policy=fast_policy())
    rows = summarize(result)
    by_metric = {metric: (mean, std, n) for _, metric, mean, std, n in rows}
    assert by_metric["rep"][2] == 3
    assert by_metric["rep"][0] == pytest.approx(1.0)  # mean of 0,1,2
    assert by_metric["rep"][1] == pytest.approx(1.0)  # sample std of 0,1,2
    report = render(result)
    assert "complete (3/3 cells ok)" in report


def test_report_is_deterministic_across_runs():
    spec = CampaignSpec(name="s", table=small_table(reps=2, points=2), fn=smoke_cell)
    a = render(run_campaign(spec, SerialExecutor(), policy=fast_policy()))
    b = render(run_campaign(spec, LocalPoolExecutor(workers=2), policy=fast_policy()))
    # No wall times, worker ids or timestamps leak into the report: the
    # serial and pool renderings are byte-identical.
    assert a.replace("executor: serial", "") == b.replace(
        "executor: local (2 workers)", ""
    )


# -- one engine: serial and pool campaigns follow the same rules --------------


@pytest.mark.parametrize(
    "make_executor",
    [lambda: SerialExecutor(), lambda: LocalPoolExecutor(workers=2)],
    ids=["serial", "local"],
)
def test_telemetry_counts_each_cell_observation_once(obs_enabled, make_executor):
    spec = CampaignSpec(name="s", table=small_table(points=4), fn=observed_cell)
    result = run_campaign(spec, make_executor(), policy=fast_policy())
    assert result.complete
    cells = len(result.outcomes)
    # One registry: worker-side counts and the campaign's own counters
    # land in it exactly once, however the cells were executed.
    assert obs_enabled.COUNTERS.get("test/cell_points") == cells
    assert obs_enabled.COUNTERS.get("campaign/cells_ok") == cells
    assert obs_enabled.COUNTERS.get("campaign/cells_total") == cells
    assert obs_enabled.COUNTERS.get("task/end") == cells


def test_serial_campaign_retries_an_overrun_when_policy_allows(tmp_path):
    spec = CampaignSpec(
        name="s", table=small_table(points=1), fn=slow_cell,
        kwargs={"root": str(tmp_path), "victim": 0, "sleep_s": 0.3},
    )
    result = run_campaign(
        spec, SerialExecutor(),
        policy=fast_policy(faults=FaultPolicy(
            timeout_s=0.05, max_attempts=3, backoff_s=0.0, retry_timeouts=True,
        )),
    )
    # The overrun attempt's result was discarded; the retry was fast.
    assert result.complete
    assert result.outcomes[0].attempts == 2
    assert obs.COUNTERS.get("task/timeout") == 1
    assert obs.COUNTERS.get("task/retry") == 1


def test_serial_campaign_keeps_an_overrun_and_records_it(tmp_path):
    spec = CampaignSpec(
        name="s", table=small_table(points=1), fn=slow_cell,
        kwargs={"root": str(tmp_path), "victim": 0, "sleep_s": 0.3},
    )
    result = run_campaign(
        spec, SerialExecutor(),
        policy=fast_policy(faults=FaultPolicy(
            timeout_s=0.05, max_attempts=3, backoff_s=0.0,
        )),
    )
    # In-process work cannot be preempted: without retry_timeouts the
    # result stands, and the overrun is on record.
    assert result.complete
    assert result.outcomes[0].attempts == 1
    assert obs.COUNTERS.get("task/overtime") == 1
    assert "task/timeout" not in obs.COUNTERS.snapshot()


def test_dead_worker_exit_code_is_reaped_before_it_is_read():
    spec = CampaignSpec(name="s", table=small_table(points=12), fn=dying_cell)
    result = run_campaign(
        spec, LocalPoolExecutor(workers=2, max_respawns=24),
        policy=fast_policy(faults=FaultPolicy(max_attempts=1, backoff_s=0.0)),
    )
    failed = result.by_status(STATUS_FAILED)
    assert len(failed) == 12
    for outcome in failed:
        assert "exit code 17" in outcome.error, outcome.error
