"""Bench suite: timing math, snapshots, regression gate, CLI exit codes."""

import json

import pytest

from repro.cli import main
from repro.errors import ConfigError
from repro.obs import bench

#: Cheapest suite stage (pure kernel; setup is one tiny trace-gen).
KERNEL_STAGE = "fastpath/lru_miss_mask"
#: Cheapest stage whose runtime clears the comparison noise floor.
SLOW_STAGE = "scalar/miss_curve"


def test_stage_result_median_and_iqr():
    r = bench.StageResult(name="s", reps=[3.0, 1.0, 2.0, 4.0])
    assert r.median_s == 2.5
    assert r.iqr_s == pytest.approx(1.5)
    assert bench.StageResult(name="s", reps=[5.0]).iqr_s == 0.0


def test_regression_ratio_and_text():
    r = bench.Regression(stage="s", baseline_s=0.1, current_s=0.3, threshold=1.5)
    assert r.ratio == pytest.approx(3.0)
    assert "3.00x > 1.50x" in str(r)


def test_run_suite_validates_inputs():
    with pytest.raises(ConfigError, match="reps"):
        bench.run_suite(reps=0)
    with pytest.raises(ConfigError, match="unknown stages"):
        bench.run_suite(reps=1, stages=["no/such/stage"])


def test_run_suite_quick_caps_reps():
    results = bench.run_suite(reps=5, quick=True, stages=[KERNEL_STAGE])
    assert [r.name for r in results] == [KERNEL_STAGE]
    assert len(results[0].reps) == 3  # quick caps reps at 3
    assert all(t >= 0.0 for t in results[0].reps)


def _payload(stages: dict, quick: bool = True) -> dict:
    return {
        "schema": bench.SCHEMA_VERSION,
        "quick": quick,
        "reps": 1,
        "stages": {
            name: {"median_s": median, "iqr_s": 0.0, "reps_s": [median]}
            for name, median in stages.items()
        },
    }


def test_compare_snapshots_flags_regression():
    baseline = _payload({"a": 0.010, "b": 0.010})
    current = _payload({"a": 0.020, "b": 0.011})
    regressions = bench.compare_snapshots(current, baseline, threshold=1.5)
    assert [r.stage for r in regressions] == ["a"]
    assert regressions[0].ratio == pytest.approx(2.0)


def test_compare_snapshots_threshold_validation():
    with pytest.raises(ConfigError, match="threshold"):
        bench.compare_snapshots(_payload({}), _payload({}), threshold=1.0)


def test_compare_snapshots_never_crosses_quick_and_full():
    slow = _payload({"a": 0.010}, quick=False)
    fast = _payload({"a": 1.000}, quick=True)
    assert bench.compare_snapshots(fast, slow) == []


def test_compare_snapshots_noise_floor_and_missing_stage():
    baseline = _payload({"tiny": 0.0002, "gone": 0.010})
    current = _payload({"tiny": 0.0009, "new": 5.0})
    # 4.5x "regression" below MIN_COMPARABLE_S is timer noise; "new"
    # has no baseline; "gone" no longer runs.
    assert bench.compare_snapshots(current, baseline) == []


def test_write_snapshot_never_overwrites(tmp_path):
    payload = _payload({"a": 0.01})
    first = bench.write_snapshot(payload, tmp_path)
    second = bench.write_snapshot(payload, tmp_path)
    assert first != second
    assert first.name.startswith(bench.SNAPSHOT_PREFIX)
    assert json.loads(first.read_text())["stages"]["a"]["median_s"] == 0.01
    assert bench.previous_snapshot(tmp_path) == second


def test_previous_snapshot_empty_dir(tmp_path):
    assert bench.previous_snapshot(tmp_path) is None


def test_run_bench_end_to_end(tmp_path):
    path, regressions, report = bench.run_bench(
        out_dir=tmp_path, reps=1, quick=True, stages=[KERNEL_STAGE]
    )
    assert path.exists()
    assert regressions == []
    assert KERNEL_STAGE in report
    assert "snapshot:" in report


def test_run_bench_detects_regression_against_doctored_baseline(tmp_path):
    # A baseline claiming the stage once ran just above the noise floor
    # (sorts after any real timestamp, so it is the comparison target).
    doctored = tmp_path / f"{bench.SNAPSHOT_PREFIX}zz-doctored.json"
    doctored.write_text(json.dumps(_payload({SLOW_STAGE: 0.0011})))
    path, regressions, report = bench.run_bench(
        out_dir=tmp_path, reps=1, quick=True, stages=[SLOW_STAGE],
        threshold=1.5,
    )
    assert [r.stage for r in regressions] == [SLOW_STAGE]
    assert "REGRESSION" in report
    assert str(doctored) in report


def test_run_bench_tolerates_corrupt_baseline(tmp_path):
    (tmp_path / f"{bench.SNAPSHOT_PREFIX}zz-corrupt.json").write_text("{oops")
    _, regressions, _ = bench.run_bench(
        out_dir=tmp_path, reps=1, quick=True, stages=[KERNEL_STAGE]
    )
    assert regressions == []


def test_run_bench_no_compare_skips_baseline(tmp_path):
    doctored = tmp_path / f"{bench.SNAPSHOT_PREFIX}zz-doctored.json"
    doctored.write_text(json.dumps(_payload({SLOW_STAGE: 0.0011})))
    _, regressions, report = bench.run_bench(
        out_dir=tmp_path, reps=1, quick=True, stages=[SLOW_STAGE],
        compare=False,
    )
    assert regressions == []
    assert str(doctored) not in report


# -- CLI ---------------------------------------------------------------------


def test_cli_bench_writes_snapshot(tmp_path, capsys):
    rc = main(
        ["bench", "--quick", "--reps", "1", "--out-dir", str(tmp_path),
         "--stage", KERNEL_STAGE]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert KERNEL_STAGE in out
    assert list(tmp_path.glob(f"{bench.SNAPSHOT_PREFIX}*.json"))


def test_cli_bench_obs_flag_records_spans(tmp_path, capsys):
    rc = main(
        ["bench", "--quick", "--reps", "1", "--stage", "fastpath/lru_miss_mask",
         "--no-compare", "--out-dir", str(tmp_path), "--obs"]
    )
    assert rc == 0
    assert "bench/run/fastpath/lru_miss_mask" in capsys.readouterr().err


def test_cli_bench_exits_3_on_regression(tmp_path, capsys):
    doctored = tmp_path / f"{bench.SNAPSHOT_PREFIX}zz-doctored.json"
    doctored.write_text(
        json.dumps(_payload({SLOW_STAGE: 0.0011}))
    )
    rc = main(
        ["bench", "--quick", "--reps", "1", "--out-dir", str(tmp_path),
         "--stage", SLOW_STAGE]
    )
    assert rc == 3
    captured = capsys.readouterr()
    assert "REGRESSION" in captured.out
    assert "regress" in captured.err.lower()


def test_cli_bench_unknown_stage(tmp_path, capsys):
    rc = main(["bench", "--out-dir", str(tmp_path), "--stage", "bogus"])
    assert rc == 2
    assert "unknown stages" in capsys.readouterr().err
