"""Every published figure configuration passes its differential check."""

import pytest

from repro.core.config import SimConfig
from repro.errors import ConfigError
from repro.obs.diffcheck import (
    FIGURE_DIFF_CONFIGS,
    run_all_figure_diffchecks,
    run_figure_diffcheck,
)

#: Smaller than DIFF_SIM: enough to exercise warmup, sharing and the
#: sweep, cheap enough to run one test per figure.
TEST_SIM = SimConfig(seed=1234, refs_per_proc=2_000, warmup_fraction=0.5)

#: The sweep and profile rows replay one CPU's trace, cheap enough to
#: run at a second trace length too.  Their multi-chunk replays cut the
#: trace into sevenths, so a different length and warmup fraction move
#: every chunk boundary and the warmup split relative to TEST_SIM.
SECOND_SIM = SimConfig(seed=4321, refs_per_proc=1_500, warmup_fraction=0.2)

#: One case per row; the sweep and profile rows get a second case at
#: SECOND_SIM (pytest then suffixes their ids ``_0`` and ``_1``).
CASES = [
    (config, sim)
    for config in FIGURE_DIFF_CONFIGS
    for sim in ((TEST_SIM,) if config.mode == "hierarchy" else (TEST_SIM, SECOND_SIM))
]


def test_all_13_figures_are_covered():
    ids = [c.fig_id for c in FIGURE_DIFF_CONFIGS]
    assert ids == [f"fig{n:02d}" for n in range(4, 17)]  # one row each
    modes = {c.mode for c in FIGURE_DIFF_CONFIGS}
    assert modes == {"hierarchy", "miss_curve", "stackdist"}
    # The special machine setups all have coverage.
    assert any(c.include_os for c in FIGURE_DIFF_CONFIGS)
    assert any(c.with_gc_stream for c in FIGURE_DIFF_CONFIGS)
    assert any(c.procs_per_l2 > 1 for c in FIGURE_DIFF_CONFIGS)


@pytest.mark.parametrize(
    "config, sim", CASES, ids=[config.fig_id for config, _ in CASES]
)
def test_figure_config_diffcheck_green(config, sim):
    report = run_figure_diffcheck(config, sim=sim)
    assert report.ok, report.render()
    assert report.n_refs > 0
    assert report.checks >= 1


def test_run_all_subset_preserves_declaration_order():
    reports = run_all_figure_diffchecks(["fig16", "fig11"], sim=TEST_SIM)
    assert [r.name for r in reports] == ["fig11/stackdist", "fig16/hierarchy"]
    assert all(r.ok for r in reports)


def test_run_all_rejects_unknown_ids():
    with pytest.raises(ConfigError, match="fig99"):
        run_all_figure_diffchecks(["fig99"])
