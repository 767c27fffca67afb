"""``jmmw bench``: the ratio-gate runner, its exit codes, and the real
gates' parity checks at tiny trace sizes."""

import re
import time
from dataclasses import replace

import pytest

from repro.cli import main
from repro.obs import bench

#: References per CPU for the real gates' one-round parity runs.
TINY = 3_000


def _gate(name: str) -> bench.Gate:
    return next(gate for gate in bench.GATES if gate.name == name)


def _synthetic(name, fast_s=0.0, reference_s=0.0, fast_value=1, calls=None):
    """A gate whose sides sleep; ``calls`` records which side ran."""

    def setup(sim, workdir):
        def side(label, seconds, value):
            def run():
                if calls is not None:
                    calls.append(label)
                time.sleep(seconds)
                return value

            return run

        return side("fast", fast_s, fast_value), side("reference", reference_s, 1)

    return bench.Gate(name, setup, bound=2.0, refs=1)


def _row(out: str, name: str) -> str:
    return next(line for line in out.splitlines() if line.split()[:1] == [name])


def test_run_bench_end_to_end(tmp_path, monkeypatch):
    """Rounds alternate which side runs first; the gate's work directory
    is removed and nothing is written to the current directory."""
    monkeypatch.chdir(tmp_path)
    calls, workdirs = [], []
    toy = _synthetic("toy", reference_s=0.005, calls=calls)

    def setup(sim, workdir):
        workdirs.append(workdir)
        (workdir / "cache").mkdir()
        return toy.setup(sim, workdir)

    results = bench.run_bench((replace(toy, setup=setup),))
    assert calls == ["reference", "fast", "fast", "reference"] * 2 + [
        "reference", "fast"
    ]
    assert [r.status for r in results] == ["ok"]
    assert len(results[0].ratios) == bench.ROUNDS
    assert not workdirs[0].exists()
    assert list(tmp_path.iterdir()) == []
    assert ">= 2x" in _row(bench.render(results), "toy")
    assert bench.exit_code(results) == 0


def test_cli_bench_exits_3_on_regression(monkeypatch, capsys):
    monkeypatch.setattr(bench, "GATES", (
        _synthetic("brisk", reference_s=0.01),
        _synthetic("sluggish", fast_s=0.01),
    ))
    assert main(["bench"]) == 3
    captured = capsys.readouterr()
    assert _row(captured.out, "brisk").rstrip().endswith("ok")
    assert _row(captured.out, "sluggish").rstrip().endswith("FAIL")
    assert "gate 'sluggish': FAIL" in captured.err
    assert "brisk" not in captured.err


def test_cli_bench_exits_1_when_results_differ(monkeypatch, capsys):
    monkeypatch.setattr(bench, "GATES", (
        _synthetic("sluggish", fast_s=0.01),
        _synthetic("wrong", reference_s=0.01, fast_value=2),
    ))
    assert main(["bench"]) == 1
    captured = capsys.readouterr()
    assert "FAIL: results differ in round 0" in _row(captured.out, "wrong")
    assert "gate 'wrong': FAIL: results differ in round 0" in captured.err


def test_cli_bench_writes_no_snapshot(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(bench, "GATES", (_synthetic("brisk", reference_s=0.01),))
    assert main(["bench"]) == 0
    assert list(tmp_path.iterdir()) == []


def test_cli_bench_obs_flag_records_spans(monkeypatch, capsys):
    monkeypatch.setattr(bench, "GATES", (_synthetic("brisk", reference_s=0.01),))
    assert main(["bench", "--obs"]) == 0
    err = capsys.readouterr().err
    for span in ("bench/brisk/setup", "bench/brisk/fast", "bench/brisk/reference"):
        assert span in err


def test_cli_bench_help_lists_only_obs(capsys):
    with pytest.raises(SystemExit):
        main(["bench", "--help"])
    assert set(re.findall(r"--[a-z-]+", capsys.readouterr().out)) == {"--help", "--obs"}


# -- the real gates -----------------------------------------------------------


def _sweep_one_miss_too_many(monkeypatch):
    """The compiled sweep hands back one miss more than it counted, at
    one geometry."""
    from repro.memsys.fastpath_coherence import SweepSession

    points = SweepSession.points

    def wrong(self):
        out = points(self)
        out[0].misses += 1
        return out

    monkeypatch.setattr(SweepSession, "points", wrong)


def _export_one_miss_too_many(monkeypatch):
    """The kernel hands back one L2 miss more than it counted."""
    from repro.memsys import fastpath_coherence

    export = fastpath_coherence._export_stats

    def wrong(lib, m, hierarchy):
        export(lib, m, hierarchy)
        hierarchy.proc_stats[0].l2_misses += 1

    monkeypatch.setattr(fastpath_coherence, "_export_stats", wrong)


def _skip_loop_reentry(monkeypatch):
    """The compiled burst step never re-enters the loop just executed."""
    from repro.memsys import fastpath_coherence

    monkeypatch.setattr(
        fastpath_coherence, "_defect", fastpath_coherence.BURST_DEFECT_NO_REENTRY
    )


def _publish_another_seed(monkeypatch):
    """The plane shares a trace generated from the wrong seed."""
    from repro.harness.traceplane import TracePlane

    publish = TracePlane.publish

    def wrong(self, spec, bundle=None):
        other = replace(spec, sim=replace(spec.sim, seed=spec.sim.seed + 1))
        return publish(self, spec, other.generate())

    monkeypatch.setattr(TracePlane, "publish", wrong)


def _serve_stale_hits(monkeypatch):
    """The result cache serves a figure other than the one stored."""
    from repro.harness import ResultCache

    get = ResultCache.get

    def stale(self, key):
        hit, value = get(self, key)
        return hit, replace(value, title=value.title + " (stale)") if hit else value

    monkeypatch.setattr(ResultCache, "get", stale)


def _leave_residence_unclipped(monkeypatch):
    """The compiled events step does not clip residence to the window."""
    from repro.memsys import fastpath_coherence

    monkeypatch.setattr(
        fastpath_coherence, "_defect", fastpath_coherence.LOADPLANE_DEFECT_NO_CLIP
    )


PERTURB = {
    "miss-curve": _sweep_one_miss_too_many,
    "coherent": _export_one_miss_too_many,
    "generation": _skip_loop_reentry,
    "plane": _publish_another_seed,
    "warm-cache": _serve_stale_hits,
    "loadplane": _leave_residence_unclipped,
}


def test_every_gate_has_a_perturbation():
    assert sorted(PERTURB) == sorted(gate.name for gate in bench.GATES)


@pytest.mark.parametrize("gate", bench.GATES, ids=lambda gate: gate.name)
def test_real_gate_parity_at_tiny_size(gate, tmp_path):
    result = bench.run_gate(replace(gate, refs=TINY), tmp_path, rounds=1)
    assert result.differs is None, result.status


@pytest.mark.parametrize("gate", bench.GATES, ids=lambda gate: gate.name)
def test_real_gate_catches_a_perturbed_fast_side(gate, tmp_path, monkeypatch):
    reason = gate.declines()
    if reason is not None:
        pytest.skip(reason)
    PERTURB[gate.name](monkeypatch)
    result = bench.run_gate(replace(gate, refs=TINY), tmp_path, rounds=1)
    assert result.status == "FAIL: results differ in round 0"


def test_generation_gate_skipped_under_the_reference_switch(monkeypatch, capsys):
    """With ``JMMW_FASTPATH=0`` both sides draw in Python: the row is
    skipped, names the switch, and still asserts parity."""
    monkeypatch.setenv("JMMW_FASTPATH", "0")
    generation = replace(_gate("generation"), refs=TINY)
    monkeypatch.setattr(bench, "GATES", (generation,))
    assert main(["bench"]) == 0
    assert "skipped: JMMW_FASTPATH=0" in _row(capsys.readouterr().out, "generation")


def test_loadplane_gate_skipped_under_the_reference_switch(monkeypatch, capsys):
    """With ``JMMW_FASTPATH=0`` both sides play their events in Python:
    the row is skipped, names the switch, and still asserts parity."""
    monkeypatch.setenv("JMMW_FASTPATH", "0")
    loadplane = replace(_gate("loadplane"), refs=TINY)
    monkeypatch.setattr(bench, "GATES", (loadplane,))
    assert main(["bench"]) == 0
    assert "skipped: JMMW_FASTPATH=0" in _row(capsys.readouterr().out, "loadplane")


def test_miss_curve_gate_skipped_without_the_kernel(monkeypatch, capsys):
    """Without the compiled library both sides run the scalar sweep: the
    row is skipped, says why, and still asserts parity."""
    from repro.memsys import fastpath_coherence

    monkeypatch.setattr(fastpath_coherence, "_load_library", lambda: None)
    miss_curve = replace(_gate("miss-curve"), refs=TINY)
    monkeypatch.setattr(bench, "GATES", (miss_curve,))
    assert main(["bench"]) == 0
    row = _row(capsys.readouterr().out, "miss-curve")
    assert "skipped: the compiled kernel is unavailable (no C compiler?)" in row


@pytest.mark.parametrize("degraded", ["no-kernel", "checked"])
def test_coherent_gate_skipped_when_the_kernel_cannot_serve(
    degraded, monkeypatch, capsys
):
    """Both degraded modes skip the coherent row, name the reason, and
    still assert parity; the exit code follows the other gates."""
    from repro.memsys import fastpath_coherence

    if degraded == "no-kernel":
        monkeypatch.setattr(fastpath_coherence, "_load_library", lambda: None)
        reason = "skipped: the coherence kernel is unavailable (no C compiler?)"
    else:
        monkeypatch.setenv("JMMW_CHECK", "1")
        reason = "skipped: JMMW_CHECK=1 attaches an invariant checker"
    coherent = replace(_gate("coherent"), refs=TINY)
    brisk = _synthetic("brisk", reference_s=0.01)
    monkeypatch.setattr(bench, "GATES", (coherent, brisk))
    assert main(["bench"]) == 0
    out = capsys.readouterr().out
    assert reason in _row(out, "coherent")
    assert _row(out, "brisk").rstrip().endswith("ok")
