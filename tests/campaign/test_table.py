"""Run-table declaration and deterministic expansion."""

import pytest

from repro.campaign import Axis, CampaignSpec, RunTable
from repro.campaign.studies import get_study, smoke_cell
from repro.errors import ConfigError


def make_table(reps=2):
    return RunTable(
        name="t",
        axes=(Axis("protocol", ("mosi", "msi")), Axis("workload", ("ecperf",))),
        reps=reps,
    )


def test_cells_expand_in_declaration_order():
    cells = make_table().cells()
    assert [c.key for c in cells] == [
        "protocol=mosi/workload=ecperf/rep0",
        "protocol=mosi/workload=ecperf/rep1",
        "protocol=msi/workload=ecperf/rep0",
        "protocol=msi/workload=ecperf/rep1",
    ]
    assert cells[0].point_dict == {"protocol": "mosi", "workload": "ecperf"}
    assert cells[1].rep == 1


def test_shape_and_counts():
    table = make_table(reps=3)
    assert table.n_cells == 6
    assert table.shape() == "2x1 points x 3 reps = 6 cells"


def test_cell_keys_are_unique():
    table = RunTable(
        name="big",
        axes=(Axis("a", (1, 2, 3)), Axis("b", ("x", "y", "z"))),
        reps=4,
    )
    keys = [c.key for c in table.cells()]
    assert len(keys) == len(set(keys)) == table.n_cells


@pytest.mark.parametrize(
    "bad",
    [
        lambda: Axis("", (1,)),
        lambda: Axis("a=b", (1,)),
        lambda: Axis("a/b", (1,)),
        lambda: Axis("a", ()),
        lambda: Axis("a", (1, 1)),
        lambda: RunTable(name="", axes=(Axis("a", (1,)),)),
        lambda: RunTable(name="t", axes=()),
        lambda: RunTable(name="t", axes=(Axis("a", (1,)), Axis("a", (2,)))),
        lambda: RunTable(name="t", axes=(Axis("a", (1,)),), reps=0),
    ],
)
def test_invalid_declarations_rejected(bad):
    with pytest.raises(ConfigError):
        bad()


def test_signature_covers_table_and_config_but_not_executor():
    spec_a = CampaignSpec(name="s", table=make_table(), fn=smoke_cell)
    spec_b = CampaignSpec(name="s", table=make_table(), fn=smoke_cell)
    assert spec_a.signature() == spec_b.signature()
    # Any input that could change a cell's bits changes the signature...
    assert (
        CampaignSpec(
            name="s", table=make_table(), fn=smoke_cell, kwargs={"scale": 2}
        ).signature()
        != spec_a.signature()
    )
    assert (
        CampaignSpec(name="s", table=make_table(reps=3), fn=smoke_cell).signature()
        != spec_a.signature()
    )
    # ...and the signature says nothing about executors: a campaign
    # interrupted on the worker pool may resume serially.


def test_study_registry():
    spec = get_study("smoke", reps=2)
    assert spec.table.n_cells == 12
    assert get_study("ablation").table.axes[0].name == "protocol"
    with pytest.raises(ConfigError):
        get_study("nope")
    with pytest.raises(ConfigError):
        get_study("smoke", reps=0)
