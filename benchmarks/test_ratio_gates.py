"""The ``jmmw bench`` ratio gates, one test per gate.

Each gate of :data:`repro.obs.bench.GATES` times a fast path against
its reference in this process, in alternating rounds, requires equal
results in every round and holds the median speedup to the gate's
bound.  ``python -m repro.cli bench`` runs the same table.  Run with::

    PYTHONPATH=src python -m pytest benchmarks/test_ratio_gates.py -s
"""

import pytest

from repro.obs import bench


@pytest.mark.parametrize("gate", bench.GATES, ids=lambda gate: gate.name)
def test_ratio_gate(gate, tmp_path):
    result = bench.run_gate(gate, tmp_path)
    print(f"\n{bench.render([result])}")
    if result.status.startswith("skipped"):
        pytest.skip(result.status)
    assert result.status == "ok", result.status
