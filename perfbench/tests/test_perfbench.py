"""Self-tests of the benchmark: wrappers, correctness oracle, attribution.

Run from the repository root: ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import signal
import sys
import time
from pathlib import Path

import pytest

import layers
import run

#: A load-plane ladder small enough to run in well under a second.
TINY = run.Workload(
    "tiny-ladder",
    ("loadplane", "--users", "10", "100", "--windows", "2", "--window-s", "0.5"),
    2,
    False,
)


@pytest.fixture
def bench_dirs(tmp_path, monkeypatch):
    """Keep run directories and history out of the checkout."""
    monkeypatch.setattr(run, "BUILD", tmp_path / "build")
    run.BUILD.mkdir()
    return tmp_path


def _original(module_name: str, path: str):
    import importlib

    owner = importlib.import_module(module_name)
    *parents, name = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, name, owner.__dict__[name]


def test_wrappers_restore_originals(tmp_path):
    import repro.figures.common
    import repro.loadplane.sweep
    from repro.loadplane import LoadPlaneConfig

    targets = [_original(module, path) for module, path, _, _ in layers.TARGETS]
    imported = {
        (repro.figures.common, "os_background_trace"):
            repro.figures.common.os_background_trace,
        (repro.loadplane.sweep, "simulate_loadplane"): repro.loadplane.sweep.simulate_loadplane,
    }
    tracer = layers.Tracer(tmp_path)
    hooks = layers.Hooks(tracer.wrap)
    hooks.install()
    try:
        for owner, name, raw in targets:
            assert owner.__dict__[name] is not raw
        for (module, name), raw in imported.items():
            assert getattr(module, name) is not raw  # imported copies rebound
        repro.loadplane.sweep.simulate_loadplane(
            LoadPlaneConfig(n_users=10, windows=2, window_s=0.5)
        )
    finally:
        hooks.uninstall()
    assert tracer.self_s["loadplane.sim"] > 0
    for owner, name, raw in targets:
        assert owner.__dict__[name] is raw
    for (module, name), raw in imported.items():
        assert getattr(module, name) is raw
    wrappers = {id(layers._function_of(w)) for w in hooks.wrappers()} | {
        id(w) for w in hooks.wrappers()
    }
    for name, module in list(sys.modules.items()):
        if name.startswith("repro"):
            assert not any(id(v) in wrappers for v in vars(module).values()), name
    assert not any(isinstance(f, layers._PatchFinder) for f in sys.meta_path)


def test_self_times_partition_nested_spans(tmp_path):
    """Self times are non-negative and sum to the outermost span."""
    tracer = layers.Tracer(tmp_path)

    def inner():
        time.sleep(0.02)

    wrapped_inner = tracer.wrap(inner, "memsys.coherent", None)

    def outer():
        time.sleep(0.01)
        wrapped_inner()
        wrapped_inner()
        time.sleep(0.01)

    wrapped_outer = tracer.wrap(outer, "figures.self", None)
    start = time.perf_counter()
    wrapped_outer()
    elapsed = time.perf_counter() - start
    own = tracer.self_s
    assert all(value >= 0 for value in own.values())
    assert own["memsys.coherent"] >= 0.04
    assert own["figures.self"] >= 0.02
    assert own["figures.self"] < 0.04  # the nested spans were subtracted
    assert sum(own.values()) == pytest.approx(elapsed, abs=2e-3)


def test_traced_run_self_times_sum_to_wall(bench_dirs):
    """On a real traced figure run: non-negative layers that add up."""
    workload = run.Workload("fig12", ("figures", "fig12", "--quick"), 1, True)
    traced = run.run_once(workload, 0, "trace", "sum")
    assert traced.exit_code == 0
    main = [r for r in traced.records if r["role"] == "main"]
    assert len(main) == 1
    metrics = layers.layer_metrics(traced.records, traced.wall_s)
    times = {k: v for k, v in metrics.items() if k.endswith("_s") or "_s." in k}
    assert all(value >= 0 for value in times.values()), times
    attributed = sum(main[0]["self_s"].values())
    assert attributed + metrics["other.self_s"] == pytest.approx(traced.wall_s)
    assert metrics["workloads.gen_s"] > 0
    assert metrics["memsys.miss_curve_s.instr"] > 0
    plain = run.run_once(workload, 0, "plain", "plain")
    assert plain.sha256 == traced.sha256  # tracing leaves stdout unchanged
    assert 0 < plain.setup_s < plain.cpu_s
    assert 0 < plain.setup_wall_s < plain.wall_s
    # The trace plane's resource tracker outlives the run; it was reaped.
    assert run._children() == []


def test_setup_only_run_stops_at_first_simulating_call(bench_dirs):
    setup = run.run_once(TINY, 0, "setup", "setup")
    assert setup.exit_code == -signal.SIGKILL
    assert 0 < setup.setup_s <= setup.cpu_s
    assert 0 < setup.setup_wall_s <= setup.wall_s
    assert run._children() == []


LINGERING_LAUNCH = """
import subprocess, sys
subprocess.Popen(["sleep", "60"], start_new_session=True)
print("done")
"""


def test_processes_outliving_a_run_are_stopped(bench_dirs, monkeypatch):
    """A helper in its own session that outlives the run is killed and reaped."""
    launch = bench_dirs / "lingering_launch.py"
    launch.write_text(LINGERING_LAUNCH, encoding="utf-8")
    monkeypatch.setattr(run, "LAUNCH", launch)
    monkeypatch.setattr(run, "REAP_GRACE_S", 0.2)
    start = time.monotonic()
    lingering = run.run_once(TINY, 0, "plain", "lingering")
    assert lingering.exit_code == 0
    assert time.monotonic() - start < 10
    assert run._children() == []


def test_speed_sampler_probes_until_stopped():
    with run.SpeedSampler() as sampler:
        time.sleep(0.2)
    count = len(sampler.samples)
    assert count >= 2 and all(sample > 0 for sample in sampler.samples)
    time.sleep(0.1)
    assert len(sampler.samples) == count and not sampler._thread.is_alive()


def test_run_past_its_deadline_is_killed(bench_dirs, monkeypatch):
    launch = bench_dirs / "slow_launch.py"
    launch.write_text("import time\ntime.sleep(60)\n", encoding="utf-8")
    monkeypatch.setattr(run, "LAUNCH", launch)
    slow = run.run_once(TINY, 0, "plain", "slow", deadline=time.monotonic() + 0.5)
    assert slow.exit_code == -signal.SIGKILL
    assert slow.wall_s < 10
    assert run._children() == []


def _clean_reference(workload) -> dict:
    clean = run.run_once(workload, 0, "plain", "ref")
    assert clean.exit_code == 0
    return {workload.name: {str(run.program_seed(0)): {
        "sha256": clean.sha256, "exit": clean.exit_code}}}


def test_clean_runs_are_correct(bench_dirs, monkeypatch):
    references = _clean_reference(TINY)
    monkeypatch.setattr(run, "load_references", lambda: references)
    result = run.measure(TINY, 0, 0, traced=True)
    assert result["correct"] and result["failed"] == 0
    assert result["metrics"]["failed_ratio"]["value"] == 0


def test_perturbed_reference_digest_fails_every_operation(bench_dirs, monkeypatch):
    references = _clean_reference(TINY)
    entry = references[TINY.name][str(run.program_seed(0))]
    entry["sha256"] = entry["sha256"][::-1]
    monkeypatch.setattr(run, "load_references", lambda: references)
    result = run.measure(TINY, 0, 0, traced=False)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0


DEFECT_LAUNCH = """
import dataclasses, sys
sys.path.insert(0, {perfbench!r})
import launch, layers

def perturb(raw, layer, kind):
    if kind != "loadplane":
        return None
    def wrapper(*args, **kwargs):
        result = raw(*args, **kwargs)
        return dataclasses.replace(result, events=result.events + 1)
    return wrapper

layers.Hooks(perturb).install()
sys.exit(launch.main(sys.argv[1:]))
"""


def test_wrapped_call_changing_its_result_is_counted(bench_dirs, monkeypatch):
    references = _clean_reference(TINY)
    monkeypatch.setattr(run, "load_references", lambda: references)
    defect = bench_dirs / "defect_launch.py"
    defect.write_text(DEFECT_LAUNCH.format(perfbench=str(run.HERE)), encoding="utf-8")
    monkeypatch.setattr(run, "LAUNCH", defect)
    result = run.measure(TINY, 0, 0, traced=True)
    assert not result["correct"]
    assert result["metrics"]["failed_ratio"]["value"] == 1.0


def test_traced_output_must_match_untraced_partner():
    common = dict(wall_s=1.0, cpu_s=1.0, setup_s=0.1, setup_wall_s=0.1, rss_mb=10.0,
                  exit_code=0, events=0.0, load1=0.0)
    base = run.Run(traced=False, sha256="a" * 64, **common)
    same = run.Run(traced=True, sha256="a" * 64, **common)
    other = run.Run(traced=True, sha256="b" * 64, **common)
    reference = {"sha256": "a" * 64, "exit": 0}
    assert run.tally([base], [same], 3, reference) == (6, 0)
    # The traced run matches the reference but not its partner: both fail.
    assert run.tally([base], [other], 3, {"sha256": "b" * 64, "exit": 0}) == (6, 6)


def test_report_events_reads_campaign_report():
    campaign = b"workload=uniform/users=100  events  990.75  29.7  4\n" \
               b"workload=uniform/users=100  p95_s  0.06  0.001  4\n"
    assert run.report_events("campaign-saturation", campaign) == 3963
    assert run.report_events("misscurve-sweep", campaign) == 0


def test_benchmark_spec_matches_reported_metrics():
    spec = run.load_spec()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    names = {m["name"] for m in spec["per_layer"]}
    assert set(layers.layer_metrics([], 1.0)) <= names
    references = json.loads((run.HERE / "references.json").read_text())["workloads"]
    for workload in run.WORKLOADS:
        assert set(references[workload]) == {
            str(run.program_seed(i)) for i in range(run.N_SEEDS)
        }


def test_missing_program_source_exits_nonzero(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "ROOT", Path(tmp_path))
    assert run.main(["--workload", "campaign-saturation", "--seconds", "1"]) != 0
