"""Fault policy: validation, backoff, timeouts, worker death."""

import os
import time

import pytest

from repro import obs
from repro.errors import ConfigError
from repro.harness import (
    KIND_BROKEN_POOL,
    KIND_TIMEOUT,
    FaultPolicy,
    Task,
    TaskFailure,
    run_tasks,
)


def sleep_for(seconds: float) -> float:
    time.sleep(seconds)
    return seconds


def kill_worker(_: int) -> None:
    os._exit(17)  # simulates a segfaulting / OOM-killed worker


def test_policy_validation():
    with pytest.raises(ConfigError):
        FaultPolicy(timeout_s=0)
    with pytest.raises(ConfigError):
        FaultPolicy(max_attempts=0)
    with pytest.raises(ConfigError):
        FaultPolicy(backoff_s=-1)
    with pytest.raises(ConfigError):
        FaultPolicy(backoff_factor=0.5)


def test_backoff_schedule():
    policy = FaultPolicy(max_attempts=3, backoff_s=0.1, backoff_factor=2.0)
    assert policy.delay(1) == pytest.approx(0.1)
    assert policy.delay(2) == pytest.approx(0.2)
    assert policy.should_retry(1) and policy.should_retry(2)
    assert not policy.should_retry(3)


def test_task_failure_str():
    failure = TaskFailure(key="fig04", kind="error", error="ValueError('x')", attempts=2)
    text = str(failure)
    assert "fig04" in text and "2 attempt" in text and "ValueError" in text


def test_pool_timeout_fails_slow_task_only():
    tasks = [
        Task(key="slow", fn=sleep_for, args=(0.8,)),
        Task(key="fast", fn=sleep_for, args=(0.01,)),
    ]
    outcomes = run_tasks(
        tasks, jobs=2, faults=FaultPolicy(timeout_s=0.2)
    )
    by_key = {o.key: o for o in outcomes}
    assert by_key["fast"].ok
    assert not by_key["slow"].ok
    assert by_key["slow"].failure.kind == KIND_TIMEOUT
    assert obs.COUNTERS.get("task/timeout") == 1


def test_serial_timeout_is_advisory():
    # jobs=1 cannot preempt: the result is kept, the overrun recorded.
    outcomes = run_tasks(
        [Task(key="slow", fn=sleep_for, args=(0.1,))],
        jobs=1,
        faults=FaultPolicy(timeout_s=0.01),
    )
    assert outcomes[0].ok and outcomes[0].value == 0.1
    assert obs.COUNTERS.get("task/overtime") == 1


def test_policy_validation_backoff_cap_and_jitter():
    with pytest.raises(ConfigError):
        FaultPolicy(backoff_max_s=0)
    with pytest.raises(ConfigError):
        FaultPolicy(jitter=-0.1)
    with pytest.raises(ConfigError):
        FaultPolicy(jitter=1.5)


def test_backoff_cap_bounds_the_schedule():
    policy = FaultPolicy(
        max_attempts=5, backoff_s=0.1, backoff_factor=4.0, backoff_max_s=0.25
    )
    assert policy.delay(1) == pytest.approx(0.1)
    assert policy.delay(2) == pytest.approx(0.25)  # 0.4 capped
    assert policy.delay(3) == pytest.approx(0.25)  # 1.6 capped


def test_jitter_is_deterministic_and_pure():
    policy = FaultPolicy(backoff_s=0.1, jitter=0.5, jitter_seed=7)
    # Pure: same (policy, attempt, key) -> same delay, every time.
    assert policy.delay(1, key="fig04") == policy.delay(1, key="fig04")
    # Decorrelated: key, attempt and seed all move the jitter.
    assert policy.delay(1, key="fig04") != policy.delay(1, key="fig05")
    assert policy.delay(1, key="fig04") != policy.delay(2, key="fig04")
    other_seed = FaultPolicy(backoff_s=0.1, jitter=0.5, jitter_seed=8)
    assert policy.delay(1, key="fig04") != other_seed.delay(1, key="fig04")
    # Bounded: within +/- jitter of the base delay, never negative.
    for key in ("a", "b", "c", "d"):
        for attempt in (1, 2, 3):
            delay = policy.delay(attempt, key=key)
            base = 0.1 * 2.0 ** (attempt - 1)
            assert 0.0 <= base * 0.5 <= delay <= base * 1.5


def test_jitter_off_by_default_keeps_exact_schedule():
    policy = FaultPolicy(max_attempts=3, backoff_s=0.1, backoff_factor=2.0)
    assert policy.delay(1, key="anything") == pytest.approx(0.1)
    assert policy.delay(2, key="anything") == pytest.approx(0.2)


# -- retry_timeouts: one flag, identical semantics on both paths -------------


def hang_once(root: str, name: str, value, hang_s: float, hang_attempts: int = 1):
    from repro.harness.chaos import hang_task

    return hang_task(root, name, value, hang_s, hang_attempts)


@pytest.mark.parametrize("jobs", [1, 2], ids=["serial", "pool"])
def test_retry_timeouts_recovers_identically_on_both_paths(tmp_path, jobs):
    outcomes = run_tasks(
        [
            Task(
                key="h", fn=hang_once,
                args=(str(tmp_path / f"j{jobs}"), "h", 42, 0.6, 1),
            )
        ],
        jobs=jobs,
        faults=FaultPolicy(
            timeout_s=0.2, max_attempts=2, backoff_s=0.0, retry_timeouts=True
        ),
    )
    # Pinning test: whichever path ran it, the overrun attempt is a
    # discarded timeout failure and the retry produced the value.
    assert outcomes[0].ok and outcomes[0].value == 42
    assert outcomes[0].attempts == 2
    assert obs.COUNTERS.get("task/timeout") == 1
    assert obs.COUNTERS.get("task/retry") == 1
    assert "task/overtime" not in obs.COUNTERS.snapshot()


@pytest.mark.parametrize("jobs", [1, 2], ids=["serial", "pool"])
def test_retry_timeouts_exhausts_budget_identically(tmp_path, jobs):
    outcomes = run_tasks(
        [
            Task(
                key="h", fn=hang_once,
                args=(str(tmp_path / f"j{jobs}"), "h", 42, 0.5, 9),
            )
        ],
        jobs=jobs,
        faults=FaultPolicy(
            timeout_s=0.2, max_attempts=2, backoff_s=0.0, retry_timeouts=True
        ),
    )
    assert not outcomes[0].ok
    assert outcomes[0].failure.kind == KIND_TIMEOUT
    assert outcomes[0].failure.attempts == 2


def test_pool_timeout_not_retried_when_flag_off(tmp_path):
    # Default retry_timeouts=False: a timed-out task fails on the first
    # attempt even with retry budget left — a deterministic task that
    # blew its budget once will blow it again.
    outcomes = run_tasks(
        [Task(key="slow", fn=sleep_for, args=(0.8,))],
        jobs=2,
        faults=FaultPolicy(timeout_s=0.2, max_attempts=3, backoff_s=0.0),
    )
    assert not outcomes[0].ok
    assert outcomes[0].failure.kind == KIND_TIMEOUT
    assert outcomes[0].failure.attempts == 1


def test_worker_death_degrades_gracefully():
    outcomes = run_tasks(
        [Task(key="die", fn=kill_worker, args=(0,))], jobs=2
    )
    assert not outcomes[0].ok
    assert outcomes[0].failure.kind == KIND_BROKEN_POOL
    assert obs.COUNTERS.get("run/broken-pool") == 1


def test_dead_worker_exit_code_is_reaped_before_it_is_read():
    # The exit code exists only once the dead process is joined; read
    # before that it is None, and the failure would not say why.
    outcomes = run_tasks(
        [Task(key=f"die{i}", fn=kill_worker, args=(i,)) for i in range(12)],
        jobs=2,
    )
    assert all(o.failure.kind == KIND_BROKEN_POOL for o in outcomes)
    for outcome in outcomes:
        assert "exit code 17" in outcome.failure.error, outcome.failure.error


def test_crash_looping_task_cannot_starve_the_batch():
    # Every worker death costs the crashing task one attempt, so the
    # pool's respawn budget must outlast the task's retry budget: the
    # task fails broken-pool after exactly max_attempts, and every
    # other task still finishes.
    tasks = [Task(key="crash", fn=kill_worker, args=(0,))]
    tasks += [Task(key=f"slow{i}", fn=sleep_for, args=(0.3,)) for i in range(6)]
    outcomes = run_tasks(
        tasks, jobs=2, faults=FaultPolicy(max_attempts=8, backoff_s=0.0)
    )
    by_key = {o.key: o for o in outcomes}
    assert by_key["crash"].failure.kind == KIND_BROKEN_POOL
    assert by_key["crash"].failure.attempts == 8
    assert all(by_key[f"slow{i}"].ok for i in range(6))
