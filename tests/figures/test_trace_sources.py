"""Every figure declares its traces, and renders identically from either source.

Each module in ``cli.FIGURE_MODULES`` declares the traces its ``run``
replays (``trace_specs(sim)``).  ``jmmw figures`` publishes a declared
trace through the trace plane when two or more of its figures declare
it; otherwise the figure's task generates it.  So a figure runs both
ways, and both must give the same rendered figure and the same check
verdicts — and the declaration must match what ``run`` replays, or a
shared trace would be generated twice or published for nothing.
"""

import importlib
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.cli import FIGURE_MODULES
from repro.core.config import SimConfig
from repro.figures.common import QUICK_SIM, figure_checks, run_figure
from repro.harness import traceplane
from repro.harness.tasks import (
    build_figure_tasks,
    figure_cache_key,
    figure_trace_specs,
)
from repro.harness.traceplane import TracePlane, TraceSpec

#: Small enough that every figure replays all of its traces cheaply.
SMALL_SIM = SimConfig(seed=1234, refs_per_proc=5_000, warmup_fraction=0.5)


@pytest.fixture(scope="module")
def every_declared_ref(tmp_path_factory):
    """One plane holding every trace any figure declares, each once."""
    with TracePlane(root=tmp_path_factory.mktemp("plane")) as plane:
        yield plane.refs_for(
            [s for m in FIGURE_MODULES for s in figure_trace_specs(m, SMALL_SIM)]
        )


@pytest.mark.parametrize(
    "module_name", FIGURE_MODULES, ids=[m.split("_", 1)[0] for m in FIGURE_MODULES]
)
def test_plane_and_generated_traces_render_identically(
    module_name, every_declared_ref, monkeypatch, obs_enabled
):
    assert callable(importlib.import_module(f"repro.figures.{module_name}").trace_specs)
    generated = run_figure(module_name, SMALL_SIM)

    attached = set()
    real_attach = traceplane.attach

    def recording_attach(ref):
        attached.add(ref.spec_key)
        return real_attach(ref)

    monkeypatch.setattr(traceplane, "attach", recording_attach)
    refs = {
        spec.key(): every_declared_ref[spec.key()]
        for spec in figure_trace_specs(module_name, SMALL_SIM)
    }
    obs_enabled.SPANS.drain()
    published = run_figure(module_name, SMALL_SIM, plane_refs=refs)
    spans = [r["span"] for r in obs_enabled.SPANS.drain()]
    assert "workload/trace-gen" not in spans, "run replays an undeclared trace"
    assert attached == set(refs), "trace_specs declares a trace run never replays"
    assert published.render() == generated.render()
    assert figure_checks(module_name, published) == figure_checks(
        module_name, generated
    )


def test_run_figure_leaves_no_mapping_open(tmp_path):
    """A task's mappings close when it ends, so unlinking a segment after
    its last task frees its pages in every process that attached it."""
    generated = run_figure("fig16_sharedcache", SMALL_SIM)
    with TracePlane(root=tmp_path) as plane:
        refs = plane.refs_for(figure_trace_specs("fig16_sharedcache", SMALL_SIM))
        published = run_figure("fig16_sharedcache", SMALL_SIM, plane_refs=refs)
        maps = Path("/proc/self/maps").read_text()
        assert [ref.location for ref in refs.values() if ref.location in maps] == []
    assert published.render() == generated.render()


class _RecordingPlane:
    """Stands in for a TracePlane: records what would be published."""

    def __init__(self) -> None:
        self.published: dict[str, TraceSpec] = {}

    def refs_for(self, specs):
        self.published.update((spec.key(), spec) for spec in specs)
        return {spec.key(): spec.key() for spec in specs}


def _published(module_names, cache=None, manifest=None) -> list[TraceSpec]:
    plane = _RecordingPlane()
    tasks = build_figure_tasks(
        module_names, QUICK_SIM, plane=plane, cache=cache, manifest=manifest
    )
    for task in tasks:
        assert task.plane_keys == tuple(task.kwargs.get("plane_refs", ()))
        assert set(task.plane_keys) <= set(plane.published)
    return list(plane.published.values())


def test_only_traces_two_tasks_declare_are_published():
    (shared,) = _published(["fig07_datastall", "fig16_sharedcache"])
    assert shared == TraceSpec.official("ecperf", 8, QUICK_SIM)
    pair = _published(["fig12_icache", "fig13_dcache"])
    assert pair == figure_trace_specs("fig12_icache", QUICK_SIM)
    assert len(pair) == 4
    assert _published(["fig16_sharedcache"]) == []


def test_a_task_served_back_is_no_traces_user():
    pair = ["fig12_icache", "fig13_dcache"]
    cached = figure_cache_key("fig12_icache", QUICK_SIM)
    cache = SimpleNamespace(probably_has=lambda key: key == cached)
    assert _published(pair, cache=cache) == []
    manifest = SimpleNamespace(completed={"fig13"})
    assert _published(pair, manifest=manifest) == []


def test_shared_ecperf_trace_is_one_segment(tmp_path):
    with TracePlane(root=tmp_path) as plane:
        tasks = build_figure_tasks(
            ["fig07_datastall", "fig16_sharedcache"], QUICK_SIM, plane=plane
        )
        assert len(plane.refs) == 1
        assert plane.bytes_shared == 8 * QUICK_SIM.refs_per_proc * 8
    assert [len(task.plane_keys) for task in tasks] == [1, 1]
