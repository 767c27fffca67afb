"""Harness acceptance bench: parallel parity.

Fanning figures across worker processes produces byte-identical
rendered output (the benchmark_reports content) and identical check
verdicts to serial execution.  The warm-cache speedup is the
``warm-cache`` gate of ``jmmw bench`` (``test_ratio_gates.py``).
"""

from __future__ import annotations

from repro.core.config import SimConfig
from repro.figures.common import figure_checks
from repro.harness import run_tasks
from repro.harness.tasks import build_figure_tasks

#: Reduced effort: enough work for a meaningful cold-run baseline,
#: small enough to keep the bench under a minute.
SIM = SimConfig(seed=1234, refs_per_proc=25_000, warmup_fraction=0.5)

#: One simulation-heavy figure, one analytic one.
MODULES = ["fig04_scaling", "fig11_memory_use"]


def _report(outcome, module_name: str) -> str:
    """The benchmark_reports-style text for one figure outcome."""
    assert outcome.ok, outcome.failure
    lines = [outcome.value.render()]
    for claim, ok in figure_checks(module_name, outcome.value):
        lines.append(f'  [{"ok" if ok else "FAIL"}] {claim}')
    return "\n".join(lines)


def test_parallel_reports_identical_to_serial():
    serial = run_tasks(build_figure_tasks(MODULES, SIM), jobs=1)
    parallel = run_tasks(build_figure_tasks(MODULES, SIM), jobs=2)
    for module_name, a, b in zip(MODULES, serial, parallel):
        assert _report(a, module_name) == _report(b, module_name)

