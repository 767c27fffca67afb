"""Figures render identically from either trace source.

``jmmw figures`` always publishes a figure's declared traces through
the trace plane, but a figure task also runs without refs — a direct
:func:`~repro.figures.common.run_figure` call, or a task that runs
after all when the set-up expected a cache hit — and then generates
its traces locally (chunked, for the miss-curve sweeps).  Both sources
must give the same rendered figure and the same check verdicts.
"""

import pytest

from repro.core.config import SimConfig
from repro.figures.common import QUICK_SIM, figure_checks, run_figure
from repro.harness.tasks import figure_trace_specs
from repro.harness.traceplane import TracePlane

#: fig16 replays two 8-CPU traces through four machines each; a small
#: effort keeps it cheap while every sharing level still replays.
SMALL_SIM = SimConfig(seed=1234, refs_per_proc=15_000, warmup_fraction=0.5)


@pytest.mark.parametrize(
    "module_name, sim",
    [
        ("fig12_icache", QUICK_SIM),
        ("fig13_dcache", QUICK_SIM),
        ("fig16_sharedcache", SMALL_SIM),
    ],
    ids=["fig12", "fig13", "fig16"],
)
def test_plane_and_generated_traces_render_identically(module_name, sim, tmp_path):
    generated = run_figure(module_name, sim)
    plane = TracePlane(root=tmp_path)
    try:
        refs = plane.refs_for(figure_trace_specs(module_name, sim))
        assert refs, "figure declares no plane-publishable traces"
        published = run_figure(module_name, sim, plane_refs=refs)
    finally:
        plane.close()
    assert published.render() == generated.render()
    assert figure_checks(module_name, published) == figure_checks(
        module_name, generated
    )
