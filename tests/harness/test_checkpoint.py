"""Campaign manifest: incremental journaling, crash tolerance, resume."""

import json
import os
import signal

import pytest

from repro import obs
from repro.errors import CampaignInterrupted
from repro.harness import CampaignManifest, Task, run_tasks
from repro.harness.runner import TaskOutcome
from repro.harness.faults import KIND_ERROR, TaskFailure

SIG = "a" * 64


def identity(value):
    return value


def _lines(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


# -- journal mechanics -------------------------------------------------------


def test_fresh_manifest_writes_header(tmp_path):
    path = tmp_path / "c.jsonl"
    with CampaignManifest.open_fresh(path, SIG) as manifest:
        assert not manifest.resumed
    lines = _lines(path)
    assert lines[0] == {"campaign": SIG, "format": 1}


def test_record_and_lookup_round_trip(tmp_path):
    path = tmp_path / "c.jsonl"
    with CampaignManifest.open_fresh(path, SIG) as manifest:
        manifest.record(
            "t1", TaskOutcome(key="t1", value={"x": 1}, wall_s=0.5, attempts=1)
        )
        assert manifest.completed == frozenset({"t1"})
        assert manifest.lookup("t1") == (True, {"x": 1})
        assert manifest.lookup("t2") == (False, None)
    record = _lines(path)[1]
    assert record["task"] == "t1" and record["status"] == "ok"


def test_resume_serves_previous_results(tmp_path):
    path = tmp_path / "c.jsonl"
    with CampaignManifest.open_fresh(path, SIG) as manifest:
        manifest.record("t1", TaskOutcome(key="t1", value=11))
        manifest.record("t2", TaskOutcome(key="t2", value=22))
    with CampaignManifest.open_resume(path, SIG) as resumed:
        assert resumed.resumed
        assert resumed.completed == frozenset({"t1", "t2"})
        assert resumed.lookup("t1") == (True, 11)
        assert resumed.lookup("t2") == (True, 22)


def test_failed_record_clears_completion(tmp_path):
    path = tmp_path / "c.jsonl"
    failure = TaskFailure(key="t1", kind=KIND_ERROR, error="boom", attempts=1)
    with CampaignManifest.open_fresh(path, SIG) as manifest:
        manifest.record("t1", TaskOutcome(key="t1", value=1))
        manifest.record("t1", TaskOutcome(key="t1", failure=failure))
    with CampaignManifest.open_resume(path, SIG) as resumed:
        assert "t1" not in resumed.completed


def test_torn_tail_is_tolerated(tmp_path):
    """A writer killed mid-append loses at most that one record."""
    path = tmp_path / "c.jsonl"
    with CampaignManifest.open_fresh(path, SIG) as manifest:
        manifest.record("t1", TaskOutcome(key="t1", value=1))
    with path.open("a") as fh:
        fh.write('{"task": "t2", "status"')  # torn mid-write
    with CampaignManifest.open_resume(path, SIG) as resumed:
        assert resumed.resumed
        assert resumed.completed == frozenset({"t1"})


def test_signature_mismatch_starts_fresh(tmp_path):
    path = tmp_path / "c.jsonl"
    with CampaignManifest.open_fresh(path, SIG) as manifest:
        manifest.record("t1", TaskOutcome(key="t1", value=1))
    with CampaignManifest.open_resume(path, "b" * 64) as other:
        assert not other.resumed
        assert other.completed == frozenset()
    # The journal was restarted under the new signature.
    assert _lines(path)[0]["campaign"] == "b" * 64


def test_missing_journal_starts_fresh(tmp_path):
    with CampaignManifest.open_resume(tmp_path / "none.jsonl", SIG) as manifest:
        assert not manifest.resumed


@pytest.mark.parametrize("first_line", ["5", "[]", '{"task": "t1"}'])
def test_journal_without_a_header_object_starts_fresh(tmp_path, first_line):
    path = tmp_path / "c.jsonl"
    path.write_text(first_line + "\n")
    with CampaignManifest.open_resume(path, SIG) as manifest:
        assert not manifest.resumed


# -- runner integration ------------------------------------------------------


def test_run_tasks_journals_and_resume_skips(tmp_path):
    path = tmp_path / "c.jsonl"
    tasks = [Task(key=f"t{i}", fn=identity, args=(i,)) for i in range(3)]

    with CampaignManifest.open_fresh(path, SIG) as manifest:
        first = run_tasks(tasks, manifest=manifest)
    assert [o.value for o in first] == [0, 1, 2]
    obs.reset()
    with CampaignManifest.open_resume(path, SIG) as manifest:
        second = run_tasks(tasks, manifest=manifest)
    # Identical values, no task executed a second time.
    assert [o.value for o in second] == [0, 1, 2]
    assert all(o.cached for o in second)
    assert obs.COUNTERS.get("resume/skip") == 3
    assert "task/start" not in obs.COUNTERS.snapshot()


def test_cache_hits_are_journaled_into_fresh_manifests(tmp_path):
    from repro.harness import ResultCache, content_key

    cache = ResultCache(tmp_path / "cache")
    task = Task(key="t", fn=identity, args=(9,), cache_key=content_key(n=9))
    run_tasks([task], cache=cache)  # populate the cache

    path = tmp_path / "c.jsonl"
    with CampaignManifest.open_fresh(path, SIG) as manifest:
        run_tasks([task], cache=cache, manifest=manifest)
    # The cache hit became part of the campaign journal, so a resume
    # works even if the cache is later cleared.
    cache.clear()
    with CampaignManifest.open_resume(path, SIG) as resumed:
        outcomes = run_tasks([task], manifest=resumed)
    assert outcomes[0].cached and outcomes[0].value == 9


def interrupt_self(value):
    os.kill(os.getpid(), signal.SIGINT)
    return value


def test_serial_interrupt_drains_and_resumes_bit_identically(tmp_path):
    """SIGINT mid-campaign: in-flight work persists, resume finishes it."""
    path = tmp_path / "c.jsonl"
    tasks = [
        Task(key="t0", fn=identity, args=(10,)),
        Task(key="t1", fn=interrupt_self, args=(11,)),
        Task(key="t2", fn=identity, args=(12,)),
    ]
    with CampaignManifest.open_fresh(path, SIG) as manifest:
        with pytest.raises(CampaignInterrupted) as excinfo:
            run_tasks(tasks, manifest=manifest, interruptible=True)
    # The interrupted task itself completed (drained, not lost).
    assert excinfo.value.completed == 2
    assert excinfo.value.remaining == ("t2",)
    assert obs.COUNTERS.get("run/interrupted") == 1

    with CampaignManifest.open_resume(path, SIG) as resumed:
        outcomes = run_tasks(tasks, manifest=resumed, interruptible=True)
    assert [o.value for o in outcomes] == [10, 11, 12]
    by_key = {o.key: o for o in outcomes}
    assert by_key["t0"].cached and by_key["t1"].cached
    assert not by_key["t2"].cached  # the only task that actually ran


def test_uninterruptible_batch_ignores_manifest_interrupt_plumbing(tmp_path):
    """Without interruptible=True, SIGINT raises KeyboardInterrupt as ever."""
    tasks = [Task(key="t", fn=interrupt_self, args=(1,))]
    with pytest.raises(KeyboardInterrupt):
        run_tasks(tasks)


def test_unpicklable_value_is_journaled_but_not_resumable(tmp_path):
    path = tmp_path / "c.jsonl"
    with CampaignManifest.open_fresh(path, SIG) as manifest:
        manifest.record("t", TaskOutcome(key="t", value=lambda: None))
        assert manifest.lookup("t") == (False, None)
    record = _lines(path)[1]
    assert record["status"] == "ok" and record["ref"] is None
