"""CLI resilience: exit codes, --fail-fast, interrupt + --resume.

Figure execution is stubbed with a fast deterministic driver so these
tests exercise the campaign plumbing (manifest, drain, exit hygiene)
rather than the simulator.  The characterize resume test runs the real
pipeline at --quick effort to prove resumed stdout is byte-identical.
"""

import json
import os
import signal
import time

import pytest

import repro.figures.common as common
import repro.harness.tasks as harness_tasks
from repro.cli import main
from repro.core.config import SimConfig
from repro.figures.common import FigureResult

SMOKE_SIM = SimConfig(seed=1234, refs_per_proc=25_000, warmup_fraction=0.5)


@pytest.fixture
def cli_env(monkeypatch, tmp_path):
    monkeypatch.setattr(common, "QUICK_SIM", SMOKE_SIM)
    monkeypatch.setenv("JMMW_CACHE_DIR", str(tmp_path / "cache"))
    return tmp_path


def _stub_result(module_name: str) -> FigureResult:
    fig_id = module_name.split("_", 1)[0]
    return FigureResult(
        figure_id=fig_id,
        title=f"stub {module_name}",
        columns=["k", "v"],
        rows=[(1, 2.0), (3, 4.0)],
        paper_claim="stubbed",
    )


@pytest.fixture
def stub_figures(monkeypatch):
    """Replace figure execution with a fast deterministic stub.

    The stubs replay nothing, so they declare no traces either: the
    campaign publishes no segment and passes no ``plane_refs``.
    """
    monkeypatch.setattr(
        common, "run_figure", lambda module_name, sim: _stub_result(module_name)
    )
    monkeypatch.setattr(
        common, "figure_checks", lambda module_name, result: [("stub claim", True)]
    )
    monkeypatch.setattr(harness_tasks, "figure_trace_specs", lambda name, sim: [])


# -- exit-code hygiene -------------------------------------------------------


def test_unknown_figure_exits_2_on_stderr(cli_env, capsys):
    assert main(["figures", "nope", "--quick"]) == 2
    captured = capsys.readouterr()
    assert "unknown figure" in captured.err
    assert "unknown figure" not in captured.out


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["characterize", "specjbb", "--quick", "--runs", "0"], "--runs"),
        (["characterize", "specjbb", "--quick", "--runs", "-1"], "--runs"),
        (["figures", "fig04", "--quick", "--jobs", "0"], "--jobs"),
        (["campaign", "run", "smoke", "--jobs", "0"], "--jobs"),
        (["characterize", "specjbb", "--quick", "-p", "0"], "-p/--procs"),
        (["characterize", "specjbb", "--quick", "-p", "-1"], "-p/--procs"),
    ],
    ids=[
        "runs-0", "runs-negative", "figures-jobs-0", "campaign-jobs-0",
        "procs-0", "procs-negative",
    ],
)
def test_counts_below_one_are_usage_errors(cli_env, capsys, argv, flag):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert flag in captured.err and "must be at least 1" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "flags, named",
    [(["--jobs", "4"], "--jobs"), (["--resume"], "--resume")],
    ids=["jobs", "resume"],
)
def test_single_run_characterize_rejects_pool_and_journal_flags(
    cli_env, capsys, flags, named
):
    """A single run (``--runs 1``, the default) is one in-process call:
    ``--jobs`` above 1 and ``--resume`` would be ignored, so they are
    usage errors that name ``--runs``, before anything runs."""
    argv = ["characterize", "specjbb", "-p", "2", "--quick", *flags]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert named in captured.err and "--runs" in captured.err
    assert captured.out == ""


def test_failed_figure_sets_exit_code_and_stderr_summary(
    cli_env, stub_figures, monkeypatch, capsys
):
    def explode(module_name, sim):
        if module_name.startswith("fig05"):
            raise RuntimeError("driver exploded")
        return _stub_result(module_name)

    monkeypatch.setattr(common, "run_figure", explode)
    rc = main(["figures", "fig04", "fig05", "--quick", "--no-cache"])
    assert rc == 1
    captured = capsys.readouterr()
    assert "fig04" in captured.out  # the healthy figure still rendered
    assert "FAILED to run" in captured.out
    assert "1 task(s) failed" in captured.err
    assert "driver exploded" in captured.err


def test_fail_fast_aborts_remaining_figures(
    cli_env, stub_figures, monkeypatch, capsys
):
    def explode_first(module_name, sim):
        if module_name.startswith("fig04"):
            raise RuntimeError("first figure down")
        return _stub_result(module_name)

    monkeypatch.setattr(common, "run_figure", explode_first)
    rc = main(["figures", "fig04", "fig05", "fig06", "--quick", "--no-cache",
               "--fail-fast"])
    assert rc == 1
    captured = capsys.readouterr()
    assert "3 task(s) failed" in captured.err
    assert "aborted" in captured.err


# -- interrupt + resume ------------------------------------------------------


def _interrupting(module_name, sim):
    if module_name.startswith("fig04"):
        os.kill(os.getpid(), signal.SIGINT)  # drain, don't lose it
    return _stub_result(module_name)


def _records(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


def _events(path):
    return [r["event"] for r in _records(path) if r["type"] == "event"]


def test_interrupted_figures_campaign_resumes_byte_identically(
    cli_env, stub_figures, monkeypatch, capsys
):
    argv = ["figures", "fig04", "fig05", "--quick", "--no-cache"]

    # Baseline: the campaign end to end, no interruption.
    assert main(argv) == 0
    baseline = capsys.readouterr().out

    # Fresh campaign in a fresh cache dir, interrupted during fig04.
    monkeypatch.setenv("JMMW_CACHE_DIR", str(cli_env / "cache2"))

    monkeypatch.setattr(common, "run_figure", _interrupting)
    rc = main(argv)
    assert rc == 130
    captured = capsys.readouterr()
    assert "campaign interrupted" in captured.err
    assert "--resume" in captured.err
    # The in-flight figure was drained into the manifest, fig05 never ran.
    assert "1 task(s) completed, 1 remaining" in captured.err

    # Resume: fig04 served from the manifest, fig05 computed, stdout
    # byte-identical to the uninterrupted baseline.
    rc = main(argv + ["--resume"])
    assert rc == 0
    captured = capsys.readouterr()
    assert captured.out == baseline
    assert "resuming campaign: 1 task(s)" in captured.err


def test_interrupted_run_still_writes_its_obs_file(
    cli_env, stub_figures, monkeypatch, capsys
):
    monkeypatch.setattr(common, "run_figure", _interrupting)
    path = cli_env / "run.jsonl"
    argv = ["figures", "fig04", "fig05", "--quick", "--no-cache", "--obs", str(path)]
    assert main(argv) == 130
    records = _records(path)
    types = [r["type"] for r in records]
    # Every event up to the interrupt, then the spans and counters.
    n_events = types.count("event")
    assert set(types[:n_events]) == {"event"}
    assert records[n_events - 1]["event"] == "run/interrupted"
    assert types[-1] == "counter"
    counters = {r["name"]: r["value"] for r in records if r["type"] == "counter"}
    assert counters["run/interrupted"] == 1
    assert "-- counters --" in capsys.readouterr().err


def test_interrupt_while_publishing_traces_exits_130(cli_env, monkeypatch, capsys):
    """Ctrl-C while ``jmmw figures`` publishes its shared traces, before
    any task runs: the campaign reports itself interrupted, with the
    resume hint, exits 130, and leaves the plane root empty."""
    from repro.harness.traceplane import TracePlane

    publish = TracePlane.publish
    published = []

    def interrupted(self, spec, bundle=None):
        published.append(spec)
        if len(published) == 2:
            raise KeyboardInterrupt
        return publish(self, spec, bundle)

    monkeypatch.setattr(TracePlane, "publish", interrupted)
    try:
        rc = main(["figures", "fig12", "fig13", "--quick", "--no-cache"])
    except KeyboardInterrupt:
        pytest.fail("KeyboardInterrupt escaped jmmw figures")
    assert rc == 130
    err = capsys.readouterr().err
    assert "campaign interrupted: 0 task(s) completed, 2 remaining" in err
    assert "rerun with --resume to continue from the checkpoint" in err
    assert "Traceback" not in err
    assert list((cli_env / "cache" / "traceplane").iterdir()) == []


def test_obs_file_is_fresh_per_run(cli_env, stub_figures):
    path = cli_env / "run.jsonl"
    argv = ["figures", "fig04", "fig05", "--quick", "--no-cache", "--obs", str(path)]
    assert main(argv) == 0
    assert main(argv) == 0
    starts = [r["task"] for r in _records(path) if r.get("event") == "task/start"]
    assert starts == ["fig04", "fig05"]


def replaying_figure(module_name, sim):
    """A stub figure that also replays a tiny shared trace."""
    from repro.core.config import e6000_machine
    from repro.memsys.block import LOAD, STORE, encode_ref
    from repro.memsys.hierarchy import MemoryHierarchy

    trace = [encode_ref(0, STORE if i % 2 else LOAD) for i in range(64)]
    MemoryHierarchy(e6000_machine(2)).run_trace([trace, trace])
    return _stub_result(module_name)


def test_missing_kernel_notice_on_stderr_only(
    cli_env, stub_figures, monkeypatch, capsys
):
    from repro.memsys import fastpath_coherence

    monkeypatch.setattr(common, "run_figure", replaying_figure)
    argv = ["figures", "fig04", "--quick", "--no-cache"]
    assert main(argv) == 0
    plain = capsys.readouterr()
    if fastpath_coherence.kernel_available():
        assert "fell back" not in plain.err
    monkeypatch.setattr(fastpath_coherence, "_load_library", lambda: None)
    assert main(argv) == 0
    patched = capsys.readouterr()
    assert patched.out == plain.out
    assert patched.err.count("fell back to the scalar path") == 1


#: The stderr notice each counted fallback reason must print.
FALLBACK_NOTES = {
    "no-kernel": "the compiled coherence kernel is unavailable (no C compiler?)",
    "unsupported": "the kernel cannot hold the geometry (over 64 L2 caches, "
    "or inclusive L2 lines smaller than L1 lines)",
    "alloc": "the kernel could not allocate its machine state",
}


@pytest.mark.parametrize(
    "declines",
    [
        {"no-kernel": 2},
        {"unsupported": 1},
        {"alloc": 3},
        {"warm": 36},
        {"no-kernel": 1, "unsupported": 4, "alloc": 1, "warm": 5},
    ],
    ids=["no-kernel", "unsupported", "alloc", "warm", "all"],
)
def test_fallback_notice_per_reason(
    cli_env, stub_figures, monkeypatch, capsys, declines
):
    """Every reason that ran replays scalar gets one stderr line naming
    its cause; ``warm`` (fig10's design) stays silent; stdout is
    untouched."""
    from repro import obs
    from repro.memsys.fastpath_coherence import FALLBACK_COUNTER

    argv = ["figures", "fig04", "--quick", "--no-cache"]
    assert main(argv) == 0
    plain = capsys.readouterr()

    def declining_figure(module_name, sim):
        for reason, n in declines.items():
            obs.incr(f"{FALLBACK_COUNTER}/{reason}", n)
        return _stub_result(module_name)

    monkeypatch.setattr(common, "run_figure", declining_figure)
    assert main(argv) == 0
    seeded = capsys.readouterr()
    assert seeded.out == plain.out
    notes = [line for line in seeded.err.splitlines() if "fell back" in line]
    assert notes == [
        f"note: {declines[reason]} coherent replay(s) fell back to the scalar "
        f"path: {cause}"
        for reason, cause in FALLBACK_NOTES.items()
        if reason in declines
    ]


def generating_figure(module_name, sim):
    """A stub figure that also generates one small trace."""
    from dataclasses import replace

    from repro.harness.traceplane import TraceSpec

    TraceSpec("specjbb", 2, 2, replace(sim, refs_per_proc=2_000)).generate()
    return _stub_result(module_name)


#: The stderr notice each counted burst decline must print.
BURST_FALLBACK_NOTES = {
    "no-kernel": "the compiled kernel is unavailable (no C compiler?)",
    "no-npyrandom": "numpy's libnpyrandom.a was not found, so the kernel "
    "has no burst step",
}


def test_burst_fallback_notice_once_per_trace(cli_env, stub_figures, monkeypatch, capsys):
    """A trace generated without the compiled burst step prints one
    stderr line for the trace, not one per processor or burst; stdout
    is untouched."""
    from repro.memsys import fastpath_coherence

    monkeypatch.setattr(common, "run_figure", generating_figure)
    argv = ["figures", "fig04", "--quick", "--no-cache"]
    assert main(argv) == 0
    plain = capsys.readouterr()
    if fastpath_coherence.npyrandom_step_declines() is None:
        assert "code bursts" not in plain.err
    monkeypatch.setattr(fastpath_coherence, "_load_library", lambda: None)
    assert main(argv) == 0
    patched = capsys.readouterr()
    assert patched.out == plain.out
    notes = [line for line in patched.err.splitlines() if "code bursts" in line]
    assert notes == [
        "note: 1 trace(s) drew their code bursts in Python: "
        + BURST_FALLBACK_NOTES["no-kernel"]
    ]


@pytest.mark.parametrize(
    "declines",
    [{"no-kernel": 3}, {"no-npyrandom": 1}, {"no-kernel": 1, "no-npyrandom": 2}],
    ids=["no-kernel", "no-npyrandom", "both"],
)
def test_burst_fallback_notice_per_reason(
    cli_env, stub_figures, monkeypatch, capsys, declines
):
    from repro import obs
    from repro.memsys.fastpath_coherence import BURST_FALLBACK_COUNTER

    def declining_figure(module_name, sim):
        for reason, n in declines.items():
            obs.incr(f"{BURST_FALLBACK_COUNTER}/{reason}", n)
        return _stub_result(module_name)

    monkeypatch.setattr(common, "run_figure", declining_figure)
    assert main(["figures", "fig04", "--quick", "--no-cache"]) == 0
    notes = [line for line in capsys.readouterr().err.splitlines() if "note:" in line]
    assert notes == [
        f"note: {declines[reason]} trace(s) drew their code bursts in Python: {cause}"
        for reason, cause in BURST_FALLBACK_NOTES.items()
        if reason in declines
    ]


#: The stderr notice each counted miss-curve sweep decline must print.
SWEEP_FALLBACK_NOTES = {
    "no-kernel": "the compiled kernel is unavailable (no C compiler?)",
    "alloc": "the kernel could not allocate the sweep's caches",
}


@pytest.mark.parametrize(
    "declines",
    [{"no-kernel": 8}, {"alloc": 1}, {"no-kernel": 2, "alloc": 3}],
    ids=["no-kernel", "alloc", "both"],
)
def test_sweep_fallback_notice_per_reason(
    cli_env, stub_figures, monkeypatch, capsys, declines
):
    from repro import obs
    from repro.memsys.fastpath_coherence import SWEEP_FALLBACK_COUNTER

    def declining_figure(module_name, sim):
        for reason, n in declines.items():
            obs.incr(f"{SWEEP_FALLBACK_COUNTER}/{reason}", n)
        return _stub_result(module_name)

    monkeypatch.setattr(common, "run_figure", declining_figure)
    assert main(["figures", "fig04", "--quick", "--no-cache"]) == 0
    notes = [line for line in capsys.readouterr().err.splitlines() if "note:" in line]
    assert notes == [
        f"note: {declines[reason]} miss-curve sweep(s) ran the scalar reference: {cause}"
        for reason, cause in SWEEP_FALLBACK_NOTES.items()
        if reason in declines
    ]


def test_figures_setup_never_loads_the_kernel(cli_env, stub_figures, monkeypatch):
    """Cache keys and campaign signatures carry no kernel bit, so a
    run that replays nothing coherently never builds or loads it."""
    from repro.memsys import fastpath_coherence

    def refuse():
        raise AssertionError("coherence kernel loaded during set-up")

    monkeypatch.setattr(fastpath_coherence, "_load_library", refuse)
    assert main(["figures", "fig04", "--quick", "--no-cache"]) == 0


def test_resume_without_prior_campaign_just_runs(cli_env, stub_figures, capsys):
    rc = main(["figures", "fig04", "--quick", "--no-cache", "--resume"])
    assert rc == 0
    assert "fig04" in capsys.readouterr().out


def test_characterize_resume_is_byte_identical(cli_env, capsys, tmp_path):
    argv = [
        "characterize", "specjbb", "-p", "2", "--quick", "--runs", "2",
        "--no-cache",
    ]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert "2/2 replicas" in first

    trace = tmp_path / "resume-trace.jsonl"
    assert main(argv + ["--resume", "--obs", str(trace)]) == 0
    second = capsys.readouterr().out
    assert second == first
    events = _events(trace)
    assert events.count("resume/skip") == 2
    assert "task/start" not in events


def test_characterize_pool_forks_one_worker_per_replica(
    cli_env, monkeypatch, capsys
):
    started = _count_workers(monkeypatch)
    argv = [
        "characterize", "specjbb", "-p", "2", "--quick", "--runs", "2",
        "--jobs", "4", "--no-cache",
    ]
    assert main(argv) == 0
    assert "2/2 replicas" in capsys.readouterr().out
    assert started == [0, 1]


# -- load plane: interrupt + resume, flags -----------------------------------

LOADPLANE_ARGV = [
    "loadplane", "--users", "8", "32", "--windows", "3", "--window-s", "0.5",
    "--no-cache", "--no-plot",
]


def test_interrupted_loadplane_drains_and_resumes_byte_identically(
    cli_env, monkeypatch, capsys
):
    import repro.loadplane.sweep as sweep

    # Baseline: the ladder end to end, no interruption.
    assert main(LOADPLANE_ARGV) == 0
    baseline = capsys.readouterr().out

    # Fresh journal, interrupted while the first population runs.
    monkeypatch.setenv("JMMW_CACHE_DIR", str(cli_env / "cache2"))
    simulate = sweep._sweep_cell

    def interrupting(config):
        if config.n_users == 8:
            os.kill(os.getpid(), signal.SIGINT)  # drain, don't lose it
        return simulate(config)

    monkeypatch.setattr(sweep, "_sweep_cell", interrupting)
    try:
        rc = main(LOADPLANE_ARGV)
    except KeyboardInterrupt:
        pytest.fail("Ctrl-C escaped `jmmw loadplane` instead of draining")
    assert rc == 130
    captured = capsys.readouterr()
    assert "--resume" in captured.err
    assert "1 task(s) completed, 1 remaining" in captured.err

    # Resume: the drained point is served, the other computed, and
    # stdout is byte-identical to the uninterrupted run.
    assert main(LOADPLANE_ARGV + ["--resume"]) == 0
    captured = capsys.readouterr()
    assert captured.out == baseline
    assert "resuming campaign: 1 task(s)" in captured.err


@pytest.mark.parametrize("flag", ["--no-fastpath", "--check-invariants", "--fail-fast"])
def test_loadplane_takes_no_simulator_flags(cli_env, capsys, flag):
    """The load plane reads neither kernel switch and stops at no
    failure (a lost point fails the sweep), so these flags are unknown."""
    with pytest.raises(SystemExit) as excinfo:
        main(LOADPLANE_ARGV + [flag])
    assert excinfo.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


# -- campaign exit codes and resume ------------------------------------------


def sigint_cell(point, rep, *, root):
    """SIGINT the campaign process from inside one cell, once ever."""
    from repro.campaign.studies import smoke_cell
    from repro.harness.chaos import take_ticket

    if point["alpha"] == 2 and rep == 0 and take_ticket(root, "sigint") == 0:
        os.kill(os.getppid(), signal.SIGINT)
    return smoke_cell(point, rep)


def failing_cell(point, rep):
    from repro.campaign.studies import smoke_cell

    if point["alpha"] == 3:
        raise RuntimeError("cell permanently broken")
    return smoke_cell(point, rep)


def degrading_cell(point, rep):
    """ok, failed, poisoned (kills its worker), then never run."""
    from repro.campaign.studies import smoke_cell

    if point["alpha"] == 2:
        raise RuntimeError("cell permanently broken")
    if point["alpha"] == 3:
        os._exit(17)
    return smoke_cell(point, rep)


def hanging_cell(point, rep, *, root):
    """Hang for 60 s on the first attempt of one cell, once ever."""
    from repro.campaign.studies import smoke_cell
    from repro.harness.chaos import hang_task

    value = smoke_cell(point, rep)
    if point["alpha"] == 2:
        return hang_task(root, "hang", value, 60.0, 1)
    return value


@pytest.fixture
def campaign_studies(monkeypatch, tmp_path):
    """Register tiny test studies alongside the built-in ones."""
    from repro.campaign import Axis, CampaignSpec, RunTable
    from repro.campaign import studies

    table = RunTable(name="t", axes=(Axis("alpha", (1, 2, 3)),), reps=2)

    def sigint_spec(reps, quick):
        return CampaignSpec(
            name="t-sigint", table=table, fn=sigint_cell,
            kwargs={"root": str(tmp_path / "tickets")},
        )

    def failing_spec(reps, quick):
        return CampaignSpec(name="t-failing", table=table, fn=failing_cell)

    def degrading_spec(reps, quick):
        return CampaignSpec(
            name="t-degrading",
            table=RunTable(name="t", axes=(Axis("alpha", (1, 2, 3, 4)),), reps=1),
            fn=degrading_cell,
        )

    def hanging_spec(reps, quick):
        return CampaignSpec(
            name="t-hang",
            table=RunTable(name="t", axes=(Axis("alpha", (1, 2)),), reps=1),
            fn=hanging_cell, kwargs={"root": str(tmp_path / "tickets")},
        )

    registry = dict(studies.STUDIES)
    registry["t-sigint"] = sigint_spec
    registry["t-failing"] = failing_spec
    registry["t-degrading"] = degrading_spec
    registry["t-hang"] = hanging_spec
    monkeypatch.setattr(studies, "STUDIES", registry)


def test_campaign_unknown_study_exits_2(cli_env, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["campaign", "run", "nope"])
    assert excinfo.value.code == 2
    assert "unknown study" in capsys.readouterr().err


def test_campaign_complete_exits_0(cli_env, capsys):
    rc = main(["campaign", "run", "smoke", "--executor", "serial"])
    assert rc == 0
    captured = capsys.readouterr()
    assert "status: complete (12/12 cells ok)" in captured.out
    # status and report agree, read-only, exit 0.
    assert main(["campaign", "status", "smoke"]) == 0
    assert "12 ok" in capsys.readouterr().out
    assert main(["campaign", "report", "smoke"]) == 0


def test_campaign_partial_exits_4_and_report_states_degradation(
    cli_env, campaign_studies, capsys
):
    rc = main(["campaign", "run", "t-failing", "--executor", "serial"])
    assert rc == 4
    captured = capsys.readouterr()
    assert "DEGRADED" in captured.out
    assert "2 failed" in captured.out
    assert "cell permanently broken" in captured.out
    # The journal-backed report reproduces the degradation and exit code.
    assert main(["campaign", "report", "t-failing"]) == 4
    captured = capsys.readouterr()
    assert "DEGRADED" in captured.out
    assert "alpha=3/rep0" in captured.out


def _degradation_lines(report: str) -> list[str]:
    lines = report.splitlines()
    return lines[lines.index("degradation detail (cells NOT contributing above):"):]


def test_journal_report_prints_every_degraded_cell_like_the_live_run(
    cli_env, campaign_studies, capsys
):
    # One worker runs the cells in table order: alpha=2 raises, alpha=3
    # kills its worker (quarantined at once with --poison-k 1), and with
    # no respawn left alpha=4 never runs.
    rc = main([
        "campaign", "run", "t-degrading", "--jobs", "1", "--max-attempts", "1",
        "--poison-k", "1", "--max-respawns", "0",
    ])
    assert rc == 4
    live = capsys.readouterr().out
    assert "status: DEGRADED: 1/4 cells ok (1 failed, 1 poisoned, 1 missing)" in live
    assert main(["campaign", "report", "t-degrading"]) == 4
    rebuilt = capsys.readouterr().out
    assert _degradation_lines(rebuilt) == _degradation_lines(live) == [
        "degradation detail (cells NOT contributing above):",
        "  [failed] alpha=2/rep0 after 1 attempt(s): "
        "error: RuntimeError('cell permanently broken')",
        "  [poisoned] alpha=3/rep0 after 1 attempt(s): quarantined: killed 1 "
        "consecutive worker(s); last: worker 0 died (exit code 17)",
        "  [missing] alpha=4/rep0: not run: no surviving workers "
        "(executor respawn budget exhausted)",
    ]


def _count_workers(monkeypatch) -> list:
    """The ids of the pool workers started from here on, in order."""
    from repro.harness import engine

    started = []
    init = engine._Worker.__init__

    def counting_init(self, ctx, wid):
        started.append(wid)
        init(self, ctx, wid)

    monkeypatch.setattr(engine._Worker, "__init__", counting_init)
    return started


def test_resume_of_a_complete_campaign_starts_no_worker(
    cli_env, monkeypatch, capsys
):
    argv = ["campaign", "run", "smoke", "--reps", "1", "--jobs", "4"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert "executor: local (4 workers)" in first

    started = _count_workers(monkeypatch)
    assert main(argv + ["--resume"]) == 0
    assert started == []  # the journal served every cell
    assert capsys.readouterr().out == first


def test_resume_of_a_partial_campaign_starts_one_worker_per_cell_left(
    cli_env, monkeypatch, capsys
):
    from repro.campaign.state import journal_path

    argv = ["campaign", "run", "smoke", "--reps", "1", "--jobs", "4"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    path = journal_path("smoke")
    records = path.read_text().splitlines()
    path.write_text("\n".join(records[:-1]) + "\n")  # the last cell is lost

    started = _count_workers(monkeypatch)
    assert main(argv + ["--resume"]) == 0
    assert started == [0]  # one cell left to run: one worker, not four
    assert capsys.readouterr().out == first  # `executor: local (4 workers)`


def test_interrupted_pool_campaign_resumes_byte_identically(
    cli_env, campaign_studies, capsys
):
    argv = ["campaign", "run", "t-sigint", "--executor", "local", "--jobs", "2"]

    # Interrupted mid-campaign: drained cells persist, exit 130.
    rc = main(argv)
    assert rc == 130
    captured = capsys.readouterr()
    assert "campaign interrupted" in captured.err
    assert "--resume" in captured.err

    # Resume completes the table; exit 0.
    rc = main(argv + ["--resume"])
    assert rc == 0
    resumed = capsys.readouterr()
    assert "resuming campaign" in resumed.err
    assert "status: complete (6/6 cells ok)" in resumed.out

    # The resumed report is byte-identical to an uninterrupted run
    # (fresh journal, same spec, serial executor — the reference).
    rc = main(["campaign", "run", "t-sigint", "--executor", "serial"])
    assert rc == 0
    baseline = capsys.readouterr().out
    assert resumed.out.replace(
        "executor: local (2 workers)", "executor: serial"
    ) == baseline


def test_campaign_timeout_kills_a_hung_cell_and_degrades(
    cli_env, campaign_studies, capsys
):
    t0 = time.monotonic()
    rc = main(["campaign", "run", "t-hang", "--timeout", "2"])
    assert time.monotonic() - t0 < 30.0  # the budget, not the 60 s hang
    assert rc == 4
    out = capsys.readouterr().out
    assert "executor: local (2 workers)" in out
    assert "status: DEGRADED: 1/2 cells ok (1 failed)" in out
    assert "[failed] alpha=2/rep0 after 1 attempt(s)" in out
    assert "worker killed" in out


def test_campaign_retry_timeouts_completes_a_hung_cell(
    cli_env, campaign_studies, capsys
):
    rc = main(["campaign", "run", "t-hang", "--timeout", "2", "--retry-timeouts"])
    assert rc == 0
    assert "status: complete (2/2 cells ok)" in capsys.readouterr().out


def test_campaign_status_without_journal(cli_env, capsys):
    assert main(["campaign", "status", "smoke"]) == 0
    captured = capsys.readouterr()
    assert "no journal" in captured.out
    assert "12 pending" in captured.out


@pytest.mark.parametrize("journal_format", [1, 2])
def test_campaign_status_and_resume_agree_on_the_journal(
    cli_env, capsys, journal_format
):
    """`status` calls a journal resumable exactly when `--resume` serves
    its cells: a foreign journal format is neither."""
    from repro import obs
    from repro.campaign.state import journal_path

    argv = ["campaign", "run", "smoke", "--executor", "serial", "--reps", "1"]
    assert main(argv) == 0
    path = journal_path("smoke")
    header, *records = path.read_text().splitlines()
    header = {**json.loads(header), "format": journal_format}
    path.write_text("\n".join([json.dumps(header), *records]) + "\n")
    capsys.readouterr()

    assert main(["campaign", "status", "smoke", "--reps", "1"]) == 0
    status = capsys.readouterr().out
    assert main(argv + ["--resume"]) == 0
    started = obs.COUNTERS.get("task/start")
    skipped = obs.COUNTERS.get("resume/skip")
    if journal_format == 1:
        assert "signature: match (resumable)" in status
        assert "cells: 6 ok" in status
        assert (started, skipped) == (0, 6)
    else:
        assert "signature: MISMATCH" in status
        assert "6 pending" in status
        assert (started, skipped) == (6, 0)


def test_check_invariants_flag_passes_clean_run(cli_env, monkeypatch, capsys):
    # setenv first so monkeypatch restores the variable afterwards
    # (the CLI writes it through os.environ for workers to inherit).
    monkeypatch.setenv("JMMW_CHECK", "0")
    monkeypatch.setenv("JMMW_CHECK_SAMPLE", "4096")
    rc = main(
        ["characterize", "specjbb", "-p", "2", "--quick", "--runs", "1",
         "--check-invariants"]
    )
    assert rc == 0
    assert os.environ["JMMW_CHECK"] == "1"
    assert "specjbb on 2 processors" in capsys.readouterr().out
