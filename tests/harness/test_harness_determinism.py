"""Serial-vs-parallel determinism and graceful degradation.

The harness's core guarantee: because each replica's perturbation is
fully determined by ``(seed, run_index)`` and workers add nothing,
``jobs=1`` and ``jobs=4`` produce bit-identical samples.  And because
replicas are redundant by design, a raising replica degrades the
experiment (fewer samples) instead of aborting it.
"""

import json

import pytest

from repro import obs
from repro.core.config import SimConfig
from repro.core.experiment import run_repeated
from repro.errors import AnalysisError
from repro.harness import FaultPolicy, ResultCache, content_key
from repro.harness.tasks import characterize_replica, characterize_run_fn
from repro.rng import RngFactory

TINY = SimConfig(seed=7, refs_per_proc=8_000, warmup_fraction=0.5)


def test_specjbb_characterization_identical_serial_vs_parallel():
    fn = characterize_run_fn("specjbb", 2, TINY)
    serial = run_repeated(fn, n_runs=4, seed=TINY.seed, jobs=1)
    parallel = run_repeated(fn, n_runs=4, seed=TINY.seed, jobs=4)
    assert set(serial) == set(parallel)
    for name in serial:
        # bit-identical, not merely approximately equal
        assert serial[name].samples == parallel[name].samples
    assert serial["cpi"].std > 0.0  # replicas really were perturbed


def test_replica_results_do_not_depend_on_scheduling_order():
    fn = characterize_run_fn("specjbb", 2, TINY)
    a = run_repeated(fn, n_runs=3, seed=TINY.seed, jobs=3)
    b = run_repeated(fn, n_runs=3, seed=TINY.seed, jobs=2)
    assert {k: v.samples for k, v in a.items()} == {
        k: v.samples for k, v in b.items()
    }


def test_replica_is_deterministic_per_run_index():
    one = characterize_replica("specjbb", 2, TINY, RngFactory(TINY.seed, run_index=1))
    two = characterize_replica("specjbb", 2, TINY, RngFactory(TINY.seed, run_index=1))
    other = characterize_replica("specjbb", 2, TINY, RngFactory(TINY.seed, run_index=2))
    assert one == two
    assert one != other


def raising_replica(factory):
    if factory.run_index == 1:
        raise RuntimeError("injected replica failure")
    return {"metric": float(factory.run_index)}


def test_failed_replica_is_excluded_not_fatal(tmp_path):
    trace = tmp_path / "trace.jsonl"
    obs.open_sink(trace)
    results = run_repeated(raising_replica, n_runs=4, seed=3, faults=FaultPolicy())
    obs.close_sink()
    # remaining replicas complete; the bad one is excluded
    assert results["metric"].samples == (0.0, 2.0, 3.0)
    records = [json.loads(line) for line in trace.read_text().splitlines()]
    events = [r["event"] for r in records if r["type"] == "event"]
    assert "task/error" in events
    failed = [r for r in records if r.get("event") == "task/error"]
    assert "injected replica failure" in failed[0]["error"]


def test_all_replicas_failing_raises():
    def always_fail(factory):
        raise RuntimeError("nope")

    with pytest.raises(AnalysisError, match="all 3 runs failed"):
        run_repeated(always_fail, n_runs=3, faults=FaultPolicy())


def test_legacy_serial_path_still_propagates():
    with pytest.raises(RuntimeError):
        run_repeated(raising_replica, n_runs=4, seed=3)


def test_replica_caching_round_trip(tmp_path):
    cache = ResultCache(tmp_path)
    fn = characterize_run_fn("specjbb", 2, TINY)

    def key_fn(run_index: int) -> str:
        return content_key(kind="test-replica", sim=TINY, run_index=run_index)
    first = run_repeated(
        fn, n_runs=3, seed=TINY.seed, cache=cache, cache_key_fn=key_fn
    )
    assert obs.COUNTERS.get("cache/miss") == 3
    obs.reset()
    second = run_repeated(
        fn, n_runs=3, seed=TINY.seed, cache=cache, cache_key_fn=key_fn
    )
    assert obs.COUNTERS.get("cache/hit") == 3
    assert obs.COUNTERS.get("task/start") == 0
    assert {k: v.samples for k, v in first.items()} == {
        k: v.samples for k, v in second.items()
    }
