"""Harness acceptance bench: parallel parity and warm-cache speedup.

Two properties the parallel experiment engine must hold:

1. **Parity** — fanning figures across worker processes produces
   byte-identical rendered output (the benchmark_reports content) and
   identical check verdicts to serial execution;
2. **Cache win** — a warm-cache re-run of the same figures completes in
   under 25% of the cold-run wall time.
"""

from __future__ import annotations

import time

from repro import obs
from repro.core.config import SimConfig
from repro.figures.common import figure_checks
from repro.harness import ResultCache, run_tasks
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


def test_warm_cache_run_under_quarter_of_cold(tmp_path):
    cache = ResultCache(tmp_path)

    t0 = time.perf_counter()
    cold = run_tasks(build_figure_tasks(MODULES, SIM), cache=cache)
    cold_s = time.perf_counter() - t0
    assert all(o.ok and not o.cached for o in cold)

    obs.reset()
    t0 = time.perf_counter()
    warm = run_tasks(build_figure_tasks(MODULES, SIM), cache=cache)
    warm_s = time.perf_counter() - t0

    assert all(o.ok and o.cached for o in warm)
    assert obs.COUNTERS.get("cache/hit") == len(MODULES)
    for module_name, a, b in zip(MODULES, cold, warm):
        assert _report(a, module_name) == _report(b, module_name)
    assert warm_s < 0.25 * cold_s, (
        f"warm cache run took {warm_s:.2f}s vs cold {cold_s:.2f}s "
        f"({warm_s / cold_s:.0%}); expected < 25%"
    )
