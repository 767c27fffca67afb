"""Bounded-memory property of the streaming plane.

The point of chunked streaming is that peak memory is a function of
the *chunk*, not the *trace*: a billion-reference replay must not cost
a billion references of RSS.  This test proves the bound empirically
with :func:`resource.getrusage` in subprocess probes — a synthetic
chunk generator feeds :func:`repro.memsys.stream.simulate_miss_curve_stream`
directly, the replay stays inside a fixed budget, and quadrupling the
trace barely moves the peak.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

#: Chunk size for the probes: 100k refs = 0.8 MB per chunk.
CHUNK_REFS = 100_000

#: Reference counts: the short trace is ~16 MB materialized, the long
#: one 4x that.
SHORT_REFS = 2_000_000
LONG_REFS = 4 * SHORT_REFS

_PROBE = textwrap.dedent(
    """
    import resource, sys
    import numpy as np
    from repro.memsys.stream import simulate_miss_curve_stream

    total = int(sys.argv[1])
    chunk_refs = int(sys.argv[2])

    def synthetic_chunks():
        # Deterministic synthetic loads over a 1 MB footprint, built
        # chunk-by-chunk: the full trace never exists in this process.
        for start in range(0, total, chunk_refs):
            n = min(chunk_refs, total - start)
            idx = np.arange(start, start + n, dtype=np.uint64)
            addrs = (idx * np.uint64(2654435761)) % np.uint64(1 << 20)
            yield (addrs << np.uint64(2)) | np.uint64(1)  # packed LOADs

    points = simulate_miss_curve_stream(
        synthetic_chunks(), total,
        [64 * 1024, 256 * 1024], kind="data", warmup_fraction=0.5,
    )
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(peak_kb, sum(p.misses for p in points))
    """
)


def _probe_rss(total_refs: int) -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    out = subprocess.run(
        [sys.executable, "-c", _PROBE, str(total_refs), str(CHUNK_REFS)],
        capture_output=True, text=True, env=env, check=True, timeout=540,
        cwd=str(Path(__file__).resolve().parents[2]),
    )
    peak_kb, misses = out.stdout.split()
    assert int(misses) > 0
    return int(peak_kb)


def test_peak_rss_bounded_and_independent_of_trace_length():
    short_kb = _probe_rss(SHORT_REFS)
    long_kb = _probe_rss(LONG_REFS)
    # Materializing would add ~16 MB (short) / ~64 MB (long) plus the
    # classifier's derived arrays; a chunk is 0.8 MB.  Budget:
    # interpreter + numpy + chunk + replay scratch, with headroom.
    budget_kb = 400 * 1024
    assert short_kb < budget_kb, f"short replay peaked at {short_kb} KB"
    assert long_kb < budget_kb, f"long replay peaked at {long_kb} KB"
    # 4x the trace must not cost anything like 3x16 MB more RSS: the
    # allowance covers allocator noise, not a materialized trace.
    assert long_kb - short_kb < 24 * 1024, (
        f"RSS grew {long_kb - short_kb} KB from {SHORT_REFS} to "
        f"{LONG_REFS} refs; streaming must be O(chunk), not O(trace)"
    )
