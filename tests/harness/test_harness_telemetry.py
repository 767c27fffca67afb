"""Harness events through the one recorder: counters plus the JSONL sink."""

import json

from repro import obs
from repro.obs.counters import CounterRegistry


def _records(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


def _events(path):
    return [r for r in _records(path) if r["type"] == "event"]


def test_counters_without_trace_file():
    obs.emit("task/start", task="a")
    obs.emit("task/end", task="a", wall_s=0.5)
    obs.emit("task/start", task="b")
    obs.incr("cache/hit", 3)
    assert obs.COUNTERS.get("task/start") == 2
    assert obs.COUNTERS.get("cache/hit") == 3
    assert obs.close_sink() == 0  # no sink was open


def test_trace_file_records_events(tmp_path):
    path = tmp_path / "trace.jsonl"
    obs.open_sink(path)
    obs.emit("task/start", task="fig04", attempt=1)
    obs.emit("task/end", task="fig04", wall_s=1.25, worker=123)
    # Events are on disk as they happen, before the sink is closed.
    assert [e["event"] for e in _events(path)] == ["task/start", "task/end"]
    obs.close_sink()
    events = _events(path)
    assert [e["event"] for e in events] == ["task/start", "task/end"]
    assert events[0]["task"] == "fig04"
    assert events[1]["worker"] == 123
    assert all("t" in e for e in events)  # relative timestamps
    # every line is standalone JSON
    for line in path.read_text().splitlines():
        json.loads(line)


def test_trace_parent_dir_created(tmp_path):
    path = tmp_path / "deep" / "dir" / "trace.jsonl"
    obs.open_sink(path)
    obs.emit("x")
    obs.close_sink()
    assert _events(path)[0]["event"] == "x"


def test_incr_does_not_write_trace(tmp_path):
    path = tmp_path / "trace.jsonl"
    obs.open_sink(path)
    obs.incr("task/ok")
    obs.close_sink()
    assert _events(path) == []
    assert _records(path) == [{"type": "counter", "name": "task/ok", "value": 1}]


def test_render_summary_table():
    obs.emit("task/end")
    obs.emit("task/end")
    obs.emit("cache/hit")
    text = obs.COUNTERS.render_summary()
    assert "counter" in text and "value" in text
    assert "task/end" in text and "2" in text
    assert CounterRegistry().render_summary() == "obs: no counters recorded"


def test_non_json_fields_are_stringified(tmp_path):
    path = tmp_path / "trace.jsonl"
    obs.open_sink(path)
    obs.emit("odd", value={1, 2})  # sets are not JSON-serializable
    obs.close_sink()
    assert "odd" == _events(path)[0]["event"]
