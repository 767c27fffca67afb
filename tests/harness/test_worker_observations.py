"""Worker-side spans and counters must reach the parent process.

Workers historically reported only their wall-clock duration over the
result pipe; anything a task published to :mod:`repro.obs` died with
the worker.  These tests pin the contract: observations recorded inside
a worker are shipped back with the result message and merged into the
parent's singletons exactly once — identically for serial runs,
parallel runs, failed tasks, and workers respawned after a crash.
"""

import json
import os

from repro.harness import FaultPolicy, Task, run_tasks


def observed_payload(n: int) -> int:
    from repro import obs

    with obs.span("test/task", n=n):
        obs.incr("test/points", n)
        obs.emit("test/tasks", n=n)
    return n * 2


def observe_then_fail(n: int) -> None:
    from repro import obs

    obs.incr("test/points", n)
    raise RuntimeError("task failed after observing")


def crash_once_then_observe(marker: str, n: int) -> int:
    from repro import obs

    if not os.path.exists(marker):
        with open(marker, "w", encoding="utf-8") as fh:
            fh.write("x")
        os._exit(23)  # simulates a segfaulting / OOM-killed worker
    obs.incr("test/respawn_points", n)
    return n


def _tasks():
    return [Task(key=f"t{n}", fn=observed_payload, args=(n,)) for n in (1, 2, 3)]


def _run(obs, jobs: int) -> None:
    outcomes = run_tasks(_tasks(), jobs=jobs)
    assert [o.value for o in outcomes] == [2, 4, 6]
    assert obs.COUNTERS.get("test/points") == 6
    assert obs.COUNTERS.get("test/tasks") == 3
    assert obs.COUNTERS.get("task/end") == 3
    spans = [r for r in obs.SPANS.finished if r["span"] == "test/task"]
    assert sorted(r["n"] for r in spans) == [1, 2, 3]


def test_parallel_workers_ship_observations(obs_enabled):
    _run(obs_enabled, jobs=2)


def test_serial_run_reports_identical_totals(obs_enabled):
    _run(obs_enabled, jobs=1)


def test_disabled_spans_ship_counters_only():
    from repro import obs

    outcomes = run_tasks(_tasks(), jobs=2)
    assert all(o.ok for o in outcomes)
    assert obs.COUNTERS.get("test/points") == 6
    assert obs.COUNTERS.get("test/tasks") == 3
    assert obs.SPANS.finished == []


def test_failed_task_observations_still_arrive(obs_enabled):
    outcomes = run_tasks(
        [Task(key="boom", fn=observe_then_fail, args=(5,))],
        jobs=2,
        faults=FaultPolicy(max_attempts=1),
    )
    assert not outcomes[0].ok
    # The counter was published before the exception: it must survive
    # the error path of the result pipe.
    assert obs_enabled.COUNTERS.get("test/points") == 5


def test_respawned_worker_observations_arrive(obs_enabled, tmp_path):
    marker = tmp_path / "crashed-once"
    outcomes = run_tasks(
        [Task(key="phoenix", fn=crash_once_then_observe, args=(str(marker), 7))],
        jobs=2,
        faults=FaultPolicy(max_attempts=3, backoff_s=0.0),
    )
    assert outcomes[0].ok and outcomes[0].value == 7
    assert outcomes[0].attempts == 2
    assert obs_enabled.COUNTERS.get("run/broken-pool") >= 1  # the crash happened
    # The replacement worker's observations made it back regardless.
    assert obs_enabled.COUNTERS.get("test/respawn_points") == 7


def test_forked_worker_never_writes_the_parent_sink(tmp_path):
    from repro import obs

    path = tmp_path / "run.jsonl"
    obs.open_sink(path)
    run_tasks(_tasks(), jobs=2)
    obs.close_sink()
    records = [json.loads(line) for line in path.read_text().splitlines()]
    events = [r["event"] for r in records if r["type"] == "event"]
    # Only the parent writes: the workers' own events arrive as counts.
    assert "test/tasks" not in events
    assert obs.COUNTERS.get("test/tasks") == 3
    assert events.count("task/start") == events.count("task/end") == 3
