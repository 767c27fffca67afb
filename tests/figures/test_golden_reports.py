"""Frozen golden reports for the cheap, deterministic figures.

The figure pipeline is seeded end-to-end, so its stdout is a content
hash of the whole stack: workload generation, cache replay, coherence
accounting, table rendering.  These tests freeze the ``--quick`` output
of the fast figures and diff byte-for-byte — any unintentional change
anywhere in the pipeline shows up as a golden mismatch.

Intentional changes regenerate the files with::

    pytest tests/figures/test_golden_reports.py --update-goldens

The byte-stability test at the bottom is the observability contract:
enabling ``--obs`` must not change figure stdout by a single byte
(summaries go to stderr or files).
"""

from pathlib import Path

import pytest

from repro.cli import main

#: Figures cheap enough to regenerate one by one and whose quick-mode
#: checks pass (rc 0).  The whole quick figure set, these included, is
#: frozen once more in ``goldens/all.quick.txt``.
GOLDEN_FIGURES = ["fig05", "fig09", "fig10", "fig11", "fig12", "fig13"]

GOLDEN_DIR = Path(__file__).parent / "goldens"


def _golden_path(fig_id: str) -> Path:
    return GOLDEN_DIR / f"{fig_id}.quick.txt"


def _figure_stdout(
    fig_ids: str, capsys, extra: tuple[str, ...] = (), expected_rc: int = 0
) -> str:
    rc = main(["figures", *fig_ids.split(), "--quick", "--no-cache", *extra])
    assert rc == expected_rc, f"{fig_ids or 'all figures'} exited {rc}"
    return capsys.readouterr().out


def _assert_golden(name: str, out: str, request) -> None:
    """Diff ``out`` against ``goldens/<name>.quick.txt`` (or rewrite it)."""
    golden = _golden_path(name)
    if request.config.getoption("--update-goldens"):
        golden.parent.mkdir(parents=True, exist_ok=True)
        golden.write_text(out, encoding="utf-8")
        pytest.skip(f"golden for {name} rewritten")
    assert golden.exists(), (
        f"missing golden {golden}; regenerate with pytest --update-goldens"
    )
    expected = golden.read_text(encoding="utf-8")
    assert out == expected, (
        f"{name} stdout drifted from its golden; if the change is "
        f"intentional rerun with --update-goldens"
    )


@pytest.mark.parametrize("fig_id", GOLDEN_FIGURES)
def test_figure_stdout_matches_golden(fig_id, capsys, request):
    _assert_golden(fig_id, _figure_stdout(fig_id, capsys), request)


def test_all_figures_stdout_matches_golden(capsys, request):
    """Every figure id at once, including the ones whose quick-size
    shape checks fail: the run exits 1 by design (six checks in
    claims, fig06 and fig08 fail at quick size), and its stdout must
    still match byte for byte."""
    out = _figure_stdout("", capsys, expected_rc=1)
    _assert_golden("all", out, request)


def test_goldens_contain_figure_headers():
    for fig_id in GOLDEN_FIGURES:
        golden = _golden_path(fig_id)
        assert golden.exists(), f"golden for {fig_id} was never generated"
        text = golden.read_text(encoding="utf-8")
        assert f"=== {fig_id}" in text
        assert "paper:" in text


def test_figure_stdout_byte_identical_with_obs(capsys, tmp_path):
    """Turning instrumentation on must not perturb figure output."""
    captured_out = _figure_stdout(
        "fig12", capsys, extra=("--obs", str(tmp_path / "run.jsonl"))
    )
    golden = _golden_path("fig12").read_text(encoding="utf-8")
    assert captured_out == golden
