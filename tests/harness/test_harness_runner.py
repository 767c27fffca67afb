"""Parallel experiment engine: serial/parallel parity, fallbacks."""

import math
import os

import pytest

from repro import obs
from repro.errors import HarnessError
from repro.harness import (
    FaultPolicy,
    ResultCache,
    Task,
    content_key,
    run_tasks,
)


def square(x: float) -> float:
    return float(x * x)


def fail_below(x: float) -> float:
    if x < 0:
        raise ValueError(f"negative input {x}")
    return math.sqrt(x)


def make_tasks(values):
    return [Task(key=f"v{i}", fn=square, args=(v,)) for i, v in enumerate(values)]


def test_serial_and_pool_results_identical():
    values = [0.5, 1.5, 2.5, 3.5, 4.5]
    serial = run_tasks(make_tasks(values), jobs=1)
    pooled = run_tasks(make_tasks(values), jobs=3)
    assert [o.value for o in serial] == [o.value for o in pooled]
    assert [o.key for o in serial] == [o.key for o in pooled]
    assert all(o.ok for o in pooled)


def test_pool_runs_in_worker_processes():
    outcomes = run_tasks(make_tasks([1.0, 2.0, 3.0, 4.0]), jobs=2)
    assert all(o.worker is not None and o.worker != os.getpid() for o in outcomes)


def test_serial_runs_in_parent_process():
    outcomes = run_tasks(make_tasks([1.0]), jobs=1)
    assert outcomes[0].worker == os.getpid()


def test_duplicate_keys_rejected():
    tasks = [Task(key="same", fn=square, args=(1.0,)) for _ in range(2)]
    with pytest.raises(HarnessError):
        run_tasks(tasks)


def test_unpicklable_task_falls_back_to_serial():
    captured = []
    tasks = [
        Task(key="closure", fn=lambda: captured.append(1) or 7.0),
        Task(key="plain", fn=square, args=(2.0,)),
    ]
    outcomes = run_tasks(tasks, jobs=4)
    assert [o.value for o in outcomes] == [7.0, 4.0]
    assert captured == [1]  # ran in this process, not a worker
    assert obs.COUNTERS.get("run/serial-fallback") == 1


def test_failure_is_recorded_not_raised():
    tasks = [
        Task(key="bad", fn=fail_below, args=(-1.0,)),
        Task(key="good", fn=fail_below, args=(4.0,)),
    ]
    for jobs in (1, 2):
        outcomes = run_tasks(tasks, jobs=jobs)
        by_key = {o.key: o for o in outcomes}
        assert not by_key["bad"].ok
        assert by_key["bad"].failure.kind == "error"
        assert "negative input" in by_key["bad"].failure.error
        assert by_key["good"].ok and by_key["good"].value == 2.0


def test_bounded_retry_counts_attempts():
    outcomes = run_tasks(
        [Task(key="bad", fn=fail_below, args=(-1.0,))],
        faults=FaultPolicy(max_attempts=3, backoff_s=0.0),
    )
    assert outcomes[0].attempts == 3
    assert obs.COUNTERS.get("task/retry") == 2
    assert obs.COUNTERS.get("task/error") == 3


def test_cache_round_trip(tmp_path):
    cache = ResultCache(tmp_path)
    tasks = [Task(key="v", fn=square, args=(3.0,), cache_key=content_key(x=3.0))]
    assert run_tasks(tasks, cache=cache)[0].cached is False
    assert obs.COUNTERS.get("cache/miss") == 1
    obs.reset()
    outcome = run_tasks(tasks, cache=cache)[0]
    assert outcome.cached is True and outcome.value == 9.0
    assert obs.COUNTERS.get("cache/hit") == 1
    assert obs.COUNTERS.get("task/start") == 0  # nothing recomputed


def test_failed_tasks_are_not_cached(tmp_path):
    cache = ResultCache(tmp_path)
    key = content_key(x=-1.0)
    tasks = [Task(key="bad", fn=fail_below, args=(-1.0,), cache_key=key)]
    assert not run_tasks(tasks, cache=cache)[0].ok
    assert key not in cache


def test_outcomes_preserve_task_order_under_pool():
    # Varying work sizes so completion order differs from submission order.
    values = [5.0, 0.1, 3.0, 0.2, 4.0, 0.3]
    outcomes = run_tasks(make_tasks(values), jobs=3)
    assert [o.value for o in outcomes] == [v * v for v in values]
