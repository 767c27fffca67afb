"""Frozen goldens for ``jmmw loadplane --quick`` and the full ladder.

The load-plane report is seeded end-to-end — population placement,
every exponential draw, the histogram bins, the table renderer — so
its stdout is a content hash of the whole stack, exactly like the
figure goldens.  The full ladder (10 .. 10^6 users) places the largest
populations the CLI runs.  Regenerate intentionally with::

    pytest tests/loadplane/test_golden_report.py --update-goldens
"""

from pathlib import Path

import pytest

from repro.cli import main

GOLDENS = Path(__file__).parent.parent / "figures" / "goldens"
GOLDEN = GOLDENS / "loadplane.quick.txt"
FULL_GOLDEN = GOLDENS / "loadplane.full.txt"


def _check_golden(argv, golden, capsys, request):
    rc = main(argv)
    assert rc == 0
    out = capsys.readouterr().out
    if request.config.getoption("--update-goldens"):
        golden.parent.mkdir(parents=True, exist_ok=True)
        golden.write_text(out, encoding="utf-8")
        pytest.skip(f"golden {golden.name} rewritten")
    assert golden.exists(), (
        f"missing golden {golden}; regenerate with pytest --update-goldens"
    )
    assert out == golden.read_text(encoding="utf-8"), (
        f"jmmw {' '.join(argv)} stdout drifted from {golden.name}; if the "
        "change is intentional rerun with --update-goldens"
    )


def test_quick_report_matches_golden(capsys, request):
    _check_golden(["loadplane", "--quick", "--no-cache"], GOLDEN, capsys, request)


def test_obs_leaves_quick_report_unchanged(capsys):
    assert main(["loadplane", "--quick", "--no-cache", "--obs"]) == 0
    captured = capsys.readouterr()
    assert captured.out == GOLDEN.read_text(encoding="utf-8")
    assert "loadplane/place" in captured.err  # the span table names it


def test_full_ladder_report_matches_golden(capsys, request):
    _check_golden(
        ["loadplane", "--no-cache", "--no-plot"], FULL_GOLDEN, capsys, request
    )


def test_golden_carries_the_analysis_lines():
    assert GOLDEN.exists(), "golden was never generated"
    text = GOLDEN.read_text(encoding="utf-8")
    assert "saturation sweep:" in text
    assert "bottleneck: threads" in text
    assert "measured knee:" in text
    assert "*=measured" in text  # the ASCII curve rides along
