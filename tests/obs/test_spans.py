"""Span tracker: free when off, structured when on."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

from repro import obs
from repro.obs.spans import _NULL_SPAN, SpanTracker


def test_disabled_span_is_shared_noop():
    tracker = SpanTracker()
    cm = tracker.span("anything", refs=42)
    assert cm is _NULL_SPAN
    assert tracker.span("other") is cm
    with cm:
        pass
    assert tracker.finished == []
    # Disabled means no instance-level override is installed.
    assert "span" not in tracker.__dict__


def test_enable_shadows_and_disable_restores():
    tracker = SpanTracker()
    tracker.enable()
    assert "span" in tracker.__dict__
    with tracker.span("work"):
        pass
    assert len(tracker.finished) == 1
    tracker.disable()
    assert "span" not in tracker.__dict__
    with tracker.span("ignored"):
        pass
    assert len(tracker.finished) == 1


def test_nesting_records_depth_and_parent():
    tracker = SpanTracker()
    tracker.enable()
    with tracker.span("outer", module="fig12"):
        with tracker.span("inner", refs=10):
            pass
    inner, outer = tracker.finished  # inner closes first
    assert inner["span"] == "inner"
    assert inner["depth"] == 1
    assert inner["parent"] == "outer"
    assert inner["refs"] == 10
    assert outer["span"] == "outer"
    assert outer["depth"] == 0
    assert "parent" not in outer
    assert outer["module"] == "fig12"
    assert outer["duration_s"] >= inner["duration_s"] >= 0.0


def test_records_carry_non_decreasing_peak_rss():
    """Each closed span records the process's peak RSS so far, which
    cannot fall within one process, not even across a freed buffer."""
    tracker = SpanTracker()
    tracker.enable()
    with tracker.span("outer"):
        with tracker.span("alloc"):
            buffer = b"x" * (32 << 20)  # written, so resident
        del buffer
        with tracker.span("after-free"):
            pass
    peaks = [record["peak_rss_mb"] for record in tracker.finished]
    assert [r["span"] for r in tracker.finished] == ["alloc", "after-free", "outer"]
    assert all(peak > 0 for peak in peaks)
    assert peaks == sorted(peaks)


_ALLOC_PROBE = textwrap.dedent(
    """
    from repro.obs.spans import SpanTracker

    tracker = SpanTracker()
    tracker.enable()
    with tracker.span("alloc"):
        buffer = b"x" * (64 << 20)  # written, so resident
    print(tracker.finished[0]["peak_rss_mb"])
    """
)


def test_peak_rss_is_in_megabytes():
    """In a fresh interpreter a span around a written 64 MB buffer
    records a peak of at least 64 MB, and not ``ru_maxrss``'s unit
    (1024x) away from it in either direction."""
    root = Path(__file__).resolve().parents[2]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    out = subprocess.run(
        [sys.executable, "-c", _ALLOC_PROBE], capture_output=True, text=True,
        env=env, check=True, timeout=120,
    )
    peak = float(out.stdout)
    assert 64 <= peak < 64 + 512, peak


def test_drain_clears_and_ingest_merges():
    tracker = SpanTracker()
    tracker.enable()
    with tracker.span("a"):
        pass
    records = tracker.drain()
    assert [r["span"] for r in records] == ["a"]
    assert tracker.finished == []
    tracker.ingest(records)
    tracker.ingest([{"span": "worker", "t": 0.0, "duration_s": 0.5, "depth": 0}])
    assert [r["span"] for r in tracker.finished] == ["a", "worker"]


def test_summary_rows_aggregate_per_name():
    tracker = SpanTracker()
    tracker.ingest(
        [
            {"span": "x", "t": 0.0, "duration_s": 1.0, "depth": 0},
            {"span": "x", "t": 1.0, "duration_s": 3.0, "depth": 0},
            {"span": "y", "t": 2.0, "duration_s": 0.25, "depth": 0},
        ]
    )
    rows = tracker.summary_rows()
    assert rows == [("x", 2, 4.0, 2.0, 3.0), ("y", 1, 0.25, 0.25, 0.25)]
    rendered = tracker.render_summary()
    assert "x" in rendered and "y" in rendered


def test_render_summary_empty():
    assert "no spans" in SpanTracker().render_summary()


def test_write_jsonl_appends(tmp_path, obs_enabled):
    """The sink appends finished spans after the events it streamed."""
    with obs.span("a"):
        pass
    path = tmp_path / "sub" / "obs.jsonl"
    obs.open_sink(path)
    obs.emit("e")
    assert obs.close_sink() == 2  # the span, then the "e" counter
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert [r["type"] for r in records] == ["event", "span", "counter"]
    assert records[1]["span"] == "a"
