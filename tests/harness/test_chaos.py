"""Chaos tests: scripted faults exercise every harness recovery path.

Each test injects a deterministic fault through
:mod:`repro.harness.chaos` — a worker that dies mid-task, a task that
hangs past its budget, a task that raises, a cache entry rotted on
disk — and asserts the batch completes with the documented degradation
and that recovered results are bit-identical to a clean run.
"""

import time

import pytest

from repro import obs
from repro.harness import (
    KIND_BROKEN_POOL,
    KIND_ERROR,
    KIND_TIMEOUT,
    FaultPolicy,
    ResultCache,
    Task,
    content_key,
    run_tasks,
)
from repro.harness.chaos import (
    CORRUPTION_MODES,
    ChaosError,
    corrupt_cache_entry,
    crash_task,
    error_task,
    hang_task,
    take_ticket,
)


def identity(value):
    return value


def test_take_ticket_is_monotonic(tmp_path):
    assert [take_ticket(tmp_path, "t") for _ in range(3)] == [0, 1, 2]
    assert take_ticket(tmp_path, "other") == 0


# -- KIND_BROKEN_POOL: a worker dies mid-task --------------------------------


def test_crashed_worker_is_respawned_and_task_retried(tmp_path):
    tasks = [
        Task(key="crash", fn=crash_task, args=(str(tmp_path), "c1", 41)),
        Task(key="ok-a", fn=identity, args=(1,)),
        Task(key="ok-b", fn=identity, args=(2,)),
    ]
    outcomes = run_tasks(
        tasks, jobs=2, faults=FaultPolicy(max_attempts=2, backoff_s=0.0),
    )
    by_key = {o.key: o for o in outcomes}
    # The crash killed a worker; the retry ran in a respawned one and
    # produced the task's real value.
    assert by_key["crash"].ok and by_key["crash"].value == 41
    assert by_key["crash"].attempts == 2
    assert by_key["ok-a"].value == 1 and by_key["ok-b"].value == 2
    assert obs.COUNTERS.get("run/broken-pool") == 1
    assert obs.COUNTERS.get("pool/respawn") >= 1


def test_crash_beyond_retry_budget_fails_only_that_task(tmp_path):
    tasks = [
        Task(key="crash", fn=crash_task, args=(str(tmp_path), "c2", 0, 3)),
        Task(key="ok", fn=identity, args=(7,)),
    ]
    outcomes = run_tasks(
        tasks, jobs=2, faults=FaultPolicy(max_attempts=2, backoff_s=0.0)
    )
    by_key = {o.key: o for o in outcomes}
    assert not by_key["crash"].ok
    assert by_key["crash"].failure.kind == KIND_BROKEN_POOL
    assert "died" in by_key["crash"].failure.error
    assert by_key["ok"].ok and by_key["ok"].value == 7


def test_recovered_result_is_bit_identical_to_clean_run(tmp_path):
    """A result computed on the retry after a crash equals a clean result."""
    payload = {"points": [(1, 2.5), (2, 5.0)], "name": "curve"}
    clean = run_tasks([Task(key="t", fn=identity, args=(payload,))], jobs=2)
    chaotic = run_tasks(
        [Task(key="t", fn=crash_task, args=(str(tmp_path), "c3", payload))],
        jobs=2,
        faults=FaultPolicy(max_attempts=2, backoff_s=0.0),
    )
    assert chaotic[0].ok
    assert chaotic[0].value == clean[0].value


# -- KIND_TIMEOUT: the watchdog reclaims a hung slot -------------------------


def test_hung_task_is_killed_and_slot_reclaimed(tmp_path):
    tasks = [
        Task(key="hang", fn=hang_task, args=(str(tmp_path), "h1", 0, 30.0)),
        Task(key="q1", fn=identity, args=(1,)),
        Task(key="q2", fn=identity, args=(2,)),
        Task(key="q3", fn=identity, args=(3,)),
    ]
    t0 = time.monotonic()
    outcomes = run_tasks(
        tasks, jobs=2, faults=FaultPolicy(timeout_s=0.3)
    )
    wall = time.monotonic() - t0
    by_key = {o.key: o for o in outcomes}
    assert not by_key["hang"].ok
    assert by_key["hang"].failure.kind == KIND_TIMEOUT
    assert "worker killed" in by_key["hang"].failure.error
    assert all(by_key[k].ok for k in ("q1", "q2", "q3"))
    # The documented caveat fix: the hung worker was killed and its
    # slot reclaimed — total wall time is the timeout, not the hang.
    assert wall < 10.0
    assert obs.COUNTERS.get("pool/respawn") >= 1


# -- KIND_ERROR: a raising task retries under policy -------------------------


def test_transient_error_recovers_with_identical_value(tmp_path):
    outcomes = run_tasks(
        [Task(key="e", fn=error_task, args=(str(tmp_path), "e1", "payload"))],
        jobs=2,
        faults=FaultPolicy(max_attempts=2, backoff_s=0.0),
    )
    assert outcomes[0].ok and outcomes[0].value == "payload"
    assert outcomes[0].attempts == 2
    assert obs.COUNTERS.get("task/retry") == 1


def test_persistent_error_exhausts_policy(tmp_path):
    outcomes = run_tasks(
        [Task(key="e", fn=error_task, args=(str(tmp_path), "e2", 0, 5))],
        jobs=2,
        faults=FaultPolicy(max_attempts=2, backoff_s=0.0),
    )
    assert not outcomes[0].ok
    assert outcomes[0].failure.kind == KIND_ERROR
    assert "ChaosError" in outcomes[0].failure.error
    assert outcomes[0].failure.attempts == 2


def test_error_task_raises_chaos_error_directly(tmp_path):
    with pytest.raises(ChaosError):
        error_task(str(tmp_path), "direct", 0)


# -- cache corruption: quarantined, recomputed, never fatal ------------------


@pytest.mark.parametrize("mode", CORRUPTION_MODES)
def test_corrupt_cache_entry_is_quarantined_and_recomputed(tmp_path, mode):
    cache = ResultCache(tmp_path / "cache")
    key = content_key(chaos=mode)
    task = Task(key="t", fn=identity, args=(123,), cache_key=key)

    first = run_tasks([task], cache=cache)
    assert first[0].ok and not first[0].cached
    corrupt_cache_entry(cache, key, mode)
    second = run_tasks([task], cache=cache)
    # Corruption is a miss, not a crash: the task recomputed the same
    # value and the damaged entry went to quarantine.
    assert second[0].ok and not second[0].cached
    assert second[0].value == 123
    assert cache.quarantined >= 1
    assert "cache/quarantined" in obs.COUNTERS.snapshot()

    third = run_tasks([task], cache=cache)
    assert third[0].cached  # the recompute repaired the entry
    assert third[0].value == 123


def test_unknown_corruption_mode_rejected(tmp_path):
    cache = ResultCache(tmp_path)
    cache.put(content_key(x=1), 1)
    with pytest.raises(ValueError):
        corrupt_cache_entry(cache, content_key(x=1), "melt")
