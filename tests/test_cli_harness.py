"""CLI harness integration: --jobs/--no-cache/--obs, smoke + degradation."""

import json

import pytest

import repro.figures.common as common
from repro.cli import main
from repro.core.config import SimConfig

#: Smallest effort at which fig04's shape checks pass with margin.
SMOKE_SIM = SimConfig(seed=1234, refs_per_proc=25_000, warmup_fraction=0.5)


@pytest.fixture
def smoke_env(monkeypatch, tmp_path):
    """Tiny --quick sim + private cache dir, so the smoke test is fast."""
    monkeypatch.setattr(common, "QUICK_SIM", SMOKE_SIM)
    monkeypatch.setenv("JMMW_CACHE_DIR", str(tmp_path / "cache"))
    return tmp_path


def _records(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


def _events(path):
    return [r["event"] for r in _records(path) if r["type"] == "event"]


def test_figures_smoke_parallel_then_cached(smoke_env, capsys):
    """`jmmw figures fig04 --quick --jobs 2` exits 0; second run hits cache."""
    trace1 = smoke_env / "t1.jsonl"
    argv = ["figures", "fig04", "--quick", "--jobs", "2"]
    assert main(argv + ["--obs", str(trace1)]) == 0
    first_out = capsys.readouterr().out
    assert "fig04" in first_out and "[ok]" in first_out
    assert "cache/miss" in _events(trace1)

    trace2 = smoke_env / "t2.jsonl"
    assert main(argv + ["--obs", str(trace2)]) == 0
    second_out = capsys.readouterr().out
    assert "cache/hit" in _events(trace2)
    # cached stdout is byte-identical to the computed one
    assert second_out == first_out


def test_figures_no_cache_recomputes(smoke_env, capsys):
    argv = ["figures", "fig04", "--quick", "--no-cache"]
    trace1 = smoke_env / "t1.jsonl"
    trace2 = smoke_env / "t2.jsonl"
    assert main(argv + ["--obs", str(trace1)]) == 0
    assert main(argv + ["--obs", str(trace2)]) == 0
    out = capsys.readouterr()
    for trace in (trace1, trace2):
        events = _events(trace)
        assert "cache/hit" not in events and "cache/miss" not in events
        assert "task/end" in events


def test_figures_harness_summary_goes_to_stderr(smoke_env, capsys):
    assert main(["figures", "fig04", "--quick"]) == 0
    captured = capsys.readouterr()
    assert "counter" in captured.err and "value" in captured.err
    assert "task/end" in captured.err
    assert "counter" not in captured.out.split("===")[0]


def test_obs_prints_each_counter_once(capsys):
    """One registry, one table: no counter is listed twice on stderr.

    fig12 and fig13 share their traces, so the run publishes segments
    and the trace-plane counters are in the table too."""
    from repro import obs

    assert main(["figures", "fig12", "fig13", "--quick", "--no-cache", "--obs"]) == 0
    err = capsys.readouterr().err
    names = [line.split()[0] for line in err.splitlines() if line.strip()]
    for name in obs.COUNTERS.snapshot():
        assert names.count(name) == 1, name
    # Parent-side events and trace-plane counters share the one table.
    assert "task/ok" in names
    assert "harness/trace_plane/segments" in names


def test_characterize_multirun_reports_error_bars(smoke_env, capsys):
    rc = main(
        ["characterize", "specjbb", "-p", "2", "--quick", "--runs", "3", "--jobs", "2"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "3/3 replicas" in out
    assert "mean" in out and "std" in out
    assert "cpi" in out and "c2c_ratio" in out


def test_characterize_injected_failure_degrades_gracefully(
    smoke_env, monkeypatch, capsys
):
    """A raising replica is excluded, summarized on stderr, and exits 1."""
    from repro.campaign import studies

    real = studies.characterize_cell

    def flaky(point, rep, **sim):
        if rep == 1:
            raise RuntimeError("injected replica failure")
        return real(point, rep, **sim)

    monkeypatch.setattr(studies, "characterize_cell", flaky)
    trace = smoke_env / "trace.jsonl"
    rc = main(
        [
            "characterize", "specjbb", "-p", "2", "--quick",
            "--runs", "3", "--no-cache", "--obs", str(trace),
        ]
    )
    assert rc == 1
    captured = capsys.readouterr()
    assert "2/3 replicas" in captured.out
    assert "1 replica(s) failed" in captured.err
    assert "injected replica failure" in captured.err
    failures = [r for r in _records(trace) if r.get("event") == "task/error"]
    assert failures and "injected replica failure" in failures[0]["error"]


def test_characterize_every_replica_failing_exits_1(smoke_env, monkeypatch, capsys):
    from repro.campaign import studies

    def broken(point, rep, **sim):
        raise RuntimeError(f"replica {rep} broken")

    monkeypatch.setattr(studies, "characterize_cell", broken)
    argv = ["characterize", "specjbb", "-p", "2", "--quick", "--runs", "3"]
    assert main(argv + ["--no-cache"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "characterization failed: all 3 replicas failed" in captured.err
    assert "replica 0 broken" in captured.err


def test_characterize_more_runs_reuse_cached_replicas(smoke_env):
    """Replica cache keys ignore the table's shape: ``--runs 4`` is
    served the three replicas ``--runs 3`` computed."""
    from repro import obs

    argv = ["characterize", "specjbb", "--quick", "-p", "2", "--runs"]
    assert main(argv + ["3"]) == 0
    assert obs.COUNTERS.get("cache/miss") == 3
    assert main(argv + ["4"]) == 0
    assert obs.COUNTERS.get("cache/hit") == 3
    assert obs.COUNTERS.get("cache/miss") == 1


def test_characterize_no_fastpath_is_not_served_fast_path_replicas(
    smoke_env, monkeypatch
):
    from repro import obs

    # setenv first so monkeypatch restores the variable afterwards (the
    # CLI writes --no-fastpath through os.environ for workers).
    monkeypatch.setenv("JMMW_FASTPATH", "1")
    argv = ["characterize", "specjbb", "--quick", "-p", "2", "-n", "2"]
    assert main(argv) == 0
    assert obs.COUNTERS.get("cache/miss") == 2
    assert main(argv + ["--no-fastpath"]) == 0
    assert obs.COUNTERS.get("cache/miss") == 2
    assert obs.COUNTERS.get("cache/hit") == 0


def test_loadplane_resume_under_the_reference_switch_reruns_the_points(
    smoke_env, monkeypatch
):
    """The sweep's journal signature records the run switches, so a
    ``JMMW_FASTPATH=0 --resume`` over a journal of compiled-step points
    runs the reference loop instead of serving them."""
    from repro import obs

    monkeypatch.setenv("JMMW_FASTPATH", "1")
    argv = ["loadplane", "--users", "8", "32", "--no-cache", "--no-plot"]
    assert main(argv) == 0
    monkeypatch.setenv("JMMW_FASTPATH", "0")
    assert main(argv + ["--resume"]) == 0
    assert obs.COUNTERS.get("resume/skip") == 0
    assert obs.COUNTERS.get("task/start") == 2
