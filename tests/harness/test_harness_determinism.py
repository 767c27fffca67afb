"""Serial-vs-parallel determinism and graceful degradation of replicas.

``jmmw characterize --runs R`` runs R reps of a one-point campaign
(:func:`repro.campaign.studies.characterize_spec`).  Because each rep's
perturbation is fully determined by ``(seed, rep)`` and workers add
nothing, every executor yields bit-identical samples.  And because
replicas are redundant by design, a raising rep degrades the summary
(fewer samples) instead of aborting it.
"""

import json
import statistics
from dataclasses import replace

from repro import obs
from repro.campaign import (
    Axis,
    CampaignPolicy,
    CampaignSpec,
    LocalPoolExecutor,
    RunTable,
    SerialExecutor,
    run_campaign,
)
from repro.campaign.report import summarize
from repro.campaign.studies import characterize_spec
from repro.core.characterize import characterize
from repro.core.config import SimConfig
from repro.harness import FaultPolicy, ResultCache
from repro.rng import RngFactory

TINY = SimConfig(seed=7, refs_per_proc=8_000, warmup_fraction=0.5)


def _replicas(executor, runs, **kwargs) -> list:
    """Every rep's metrics, in rep order."""
    result = run_campaign(
        characterize_spec("specjbb", 2, runs, TINY), executor, **kwargs
    )
    assert result.complete
    return [outcome.value for outcome in result.outcomes]


def test_specjbb_characterization_identical_serial_vs_parallel():
    serial = _replicas(SerialExecutor(), 4)
    # bit-identical, not merely approximately equal
    assert _replicas(LocalPoolExecutor(4), 4) == serial
    # replicas really were perturbed
    assert statistics.stdev(replica["cpi"] for replica in serial) > 0.0


def test_replica_results_do_not_depend_on_scheduling_order():
    assert _replicas(LocalPoolExecutor(3), 3) == _replicas(LocalPoolExecutor(2), 3)


def _run_cell(spec: CampaignSpec, rep: int) -> dict:
    args, kwargs = spec.cell_args(spec.table.cells()[rep])
    return spec.fn(*args, **kwargs)


def test_replica_is_deterministic_per_run_index():
    spec = characterize_spec("specjbb", 2, 3, TINY)
    assert _run_cell(spec, 1) == _run_cell(spec, 1)
    assert _run_cell(spec, 1) != _run_cell(spec, 2)


def test_rep_draws_its_sub_seed_from_the_rng_factory():
    """A rep perturbs the way the Alameldeen–Wood method does: the
    rep is the ``run_index`` of the factory that draws the sub-seed."""
    factory = RngFactory(TINY.seed, run_index=2)
    sub_seed = int(factory.stream("characterize-replica").integers(1, 2**31))
    report = characterize("specjbb", n_procs=2, sim=replace(TINY, seed=sub_seed))
    cell = _run_cell(characterize_spec("specjbb", 2, 3, TINY), 2)
    assert cell["cpi"] == report.cpi.total
    assert cell["c2c_ratio"] == report.c2c_ratio


def raising_cell(point, rep):
    if rep == 1:
        raise RuntimeError("injected replica failure")
    return {"metric": float(rep)}


def test_failed_replica_is_excluded_not_fatal(tmp_path):
    spec = CampaignSpec(
        name="t", table=RunTable(name="t", axes=(Axis("x", (0,)),), reps=4),
        fn=raising_cell,
    )
    trace = tmp_path / "trace.jsonl"
    obs.open_sink(trace)
    result = run_campaign(
        spec, SerialExecutor(), policy=CampaignPolicy(faults=FaultPolicy())
    )
    obs.close_sink()
    # remaining replicas complete; the bad one is excluded
    samples = [0.0, 2.0, 3.0]
    assert summarize(result) == [
        ("x=0", "metric", statistics.mean(samples), statistics.stdev(samples), 3)
    ]
    assert [outcome.status for outcome in result.outcomes] == [
        "ok", "failed", "ok", "ok"
    ]
    records = [json.loads(line) for line in trace.read_text().splitlines()]
    failed = [r for r in records if r.get("event") == "task/error"]
    assert failed and "injected replica failure" in failed[0]["error"]


def test_replica_caching_round_trip(tmp_path):
    cache = ResultCache(tmp_path)
    first = _replicas(SerialExecutor(), 3, cache=cache)
    assert obs.COUNTERS.get("cache/miss") == 3
    obs.reset()
    second = _replicas(SerialExecutor(), 3, cache=cache)
    assert obs.COUNTERS.get("cache/hit") == 3
    assert obs.COUNTERS.get("task/start") == 0
    assert first == second
