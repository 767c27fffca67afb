"""Chunked generation reproduces materialized generation bit for bit.

``generate_chunks`` is the trace source of every miss-curve sweep run
without the trace plane; ``generate`` feeds the plane and the coherent
figures.  Concatenating one processor's chunks must give exactly
``generate(...).per_cpu[cpu]`` at any chunk size, with the pre-warm
preamble included and processors without threads left empty.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import SimConfig
from repro.rng import RngFactory
from repro.workloads.ecperf import EcperfWorkload
from repro.workloads.specjbb import SpecJbbWorkload

#: Long enough warmup that both workloads' pre-warm preambles fit.
SIM = SimConfig(seed=29, refs_per_proc=45_000, warmup_fraction=0.9)


@pytest.mark.parametrize("n_procs", [1, 3])
@pytest.mark.parametrize(
    "make",
    [lambda: SpecJbbWorkload(warehouses=2), lambda: EcperfWorkload(injection_rate=2)],
    ids=["specjbb", "ecperf"],
)
def test_concatenated_chunks_equal_generate(make, n_procs):
    workload = make()
    want = workload.generate(n_procs, SIM, RngFactory(seed=SIM.seed)).per_cpu
    for chunk_refs in (1, 997, SIM.refs_per_proc + 1):
        chunked = workload.generate_chunks(
            n_procs, SIM, RngFactory(seed=SIM.seed), chunk_refs
        )
        assert chunked.lengths == [len(t) for t in want]
        for cpu, chunks in enumerate(chunked.per_cpu):
            parts = list(chunks)
            assert all(0 < p.size <= chunk_refs for p in parts)
            got = np.concatenate(parts) if parts else np.empty(0, np.uint64)
            assert got.dtype == np.uint64
            assert np.array_equal(got, np.asarray(want[cpu], dtype=np.uint64)), (
                chunk_refs, cpu,
            )
