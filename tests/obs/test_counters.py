"""Counter registry: always on, exact, and shipped between processes."""

import json

import pytest

from repro import obs
from repro.obs.counters import CounterRegistry


def test_drain_clears_and_merge_adds():
    reg = CounterRegistry()
    reg.incr("x", 5)
    reg.incr("jvm/gc/pause_s", 0.125)
    assert reg.get("jvm/gc/pause_s") == pytest.approx(0.125)
    counts = reg.drain()
    assert counts == {"x": 5, "jvm/gc/pause_s": 0.125}
    assert reg.snapshot() == {}
    reg.merge(counts)
    reg.merge({"x": 1, "y": 2.5})
    assert reg.snapshot() == {"x": 6, "jvm/gc/pause_s": 0.125, "y": 2.5}


def test_summary_sorted_by_name():
    reg = CounterRegistry()
    reg.merge({"b": 2, "a": 1})
    assert reg.summary_rows() == [("a", 1), ("b", 2)]
    assert "no counters" in CounterRegistry().render_summary()


def test_write_jsonl(tmp_path):
    path = tmp_path / "obs.jsonl"
    obs.open_sink(path)
    obs.COUNTERS.merge({"memsys/bus/reads": 7})
    assert obs.close_sink() == 1
    record = json.loads(path.read_text())
    assert record == {"type": "counter", "name": "memsys/bus/reads", "value": 7}


# -- the module-level facade -------------------------------------------------


def test_facade_enable_disable_roundtrip():
    assert not obs.enabled()
    obs.incr("always", 9)  # counters count with spans off
    with obs.span("unseen"):
        pass
    assert obs.drain_payload() == ({"always": 9}, [])
    obs.enable()
    assert obs.enabled()
    obs.incr("seen", 2)
    with obs.span("facade"):
        pass
    counters, spans = obs.drain_payload()
    assert counters == {"seen": 2}
    assert [s["span"] for s in spans] == ["facade"]
    # Drained: nothing left to ship.
    assert obs.drain_payload() is None
    obs.disable()
    assert obs.drain_payload() is None


def test_facade_ingest_none_is_noop():
    obs.ingest(None)
    assert obs.COUNTERS.snapshot() == {}


def test_facade_render_and_export(tmp_path, obs_enabled):
    obs.incr("c", 1)
    with obs.span("s"):
        pass
    text = obs.render_summary()
    assert "-- spans --" in text and "-- counters --" in text
    obs.disable()
    assert "-- spans --" not in obs.render_summary()
    path = tmp_path / "dump.jsonl"
    obs.open_sink(path)
    assert obs.close_sink() == 2
    types = [json.loads(line)["type"] for line in path.read_text().splitlines()]
    assert types == ["span", "counter"]
