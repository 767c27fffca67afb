"""Trace generation, pinned bit for bit by recorded digests.

``test_generate_chunks.py`` compares ``generate`` with
``generate_chunks`` inside one revision, so a change that moves both
paths the same way passes it.  The digests below were recorded from
the per-reference generators, before code bursts drew their stack
offsets in one sized RNG draw; any change to what a workload emits,
or to the RNG draws behind it, fails here.

One digest covers a whole trace: every processor's stream (length
prefixed, little-endian ``uint64``) followed by the per-processor
instruction counts.  The concatenated ``generate_chunks`` output, at
two chunk sizes, is hashed with ``generate``'s instruction counts, so
one digest pins both paths.

A deliberate change to generation re-records the table with
``PYTHONPATH=src python tests/workloads/test_generation_parity.py``.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace
from typing import Iterable, NamedTuple

import numpy as np
import pytest

from repro.core.config import SimConfig
from repro.figures import fig12_icache
from repro.figures.common import FIGURE_SIM, QUICK_SIM, make_workload
from repro.rng import RngFactory
from repro.workloads.volanomark import VolanoMarkWorkload

#: Chunk sizes for the chunked path: one that splits the pre-warm
#: preamble and most transactions, one spanning many transactions.
CHUNK_SIZES = (997, 20_000)


class Case(NamedTuple):
    workload: str
    scale: int | None
    n_procs: int
    sim: SimConfig
    chunked: bool

    def make(self):
        if self.workload == "volanomark":
            return VolanoMarkWorkload()
        return make_workload(self.workload, scale=self.scale)


def _cases() -> dict[str, Case]:
    cases = {}
    for seed in (1234, 1235):
        sim = replace(QUICK_SIM, seed=seed)
        for name in ("specjbb", "ecperf"):
            for p in (1, 2, 8, 15):
                chunked = seed == 1234 and p < 15
                cases[f"{name}-p{p}-s{seed}-quick"] = Case(name, p, p, sim, chunked)
    for name in ("specjbb", "ecperf"):
        cases[f"{name}-p1-s1234-figure"] = Case(name, 1, 1, FIGURE_SIM, True)
    for spec in fig12_icache.trace_specs(QUICK_SIM):
        key = f"fig12-{spec.workload}-x{spec.scale}-p{spec.n_procs}-quick"
        cases[key] = Case(spec.workload, spec.scale, spec.n_procs, spec.sim, False)
    for p in (1, 4):
        key = f"volanomark-p{p}-s1234-quick"
        cases[key] = Case("volanomark", None, p, QUICK_SIM, False)
    return cases


CASES = _cases()

DIGESTS = {
    "ecperf-p1-s1234-figure":
        "ea74218c5e9a300cfece70f3e323c7d27f2d17b55f1f1cb9d82498a06f9b2279",
    "ecperf-p1-s1234-quick":
        "a0f83d3e8384f68d59923274e3d991abd749f6c7d383592bbcd600eee3710325",
    "ecperf-p1-s1235-quick":
        "69b06d3c8dfe11178ba013a30a3180052589308b08dc00776f9b1dd23273c4c3",
    "ecperf-p15-s1234-quick":
        "dd6feab803021ef9ff490f9e52e0748ef6b6067788e5e9c626c119ccf64e9e04",
    "ecperf-p15-s1235-quick":
        "d0c7dea85a729c843ae25c24fad53e551c169e7b2634e11256ba4a384af1ea33",
    "ecperf-p2-s1234-quick":
        "bf33173b307ad3986a737a45ce14dd6c9bdc5982a717a0b41c5495e13a605d7c",
    "ecperf-p2-s1235-quick":
        "1fd413d1a59725880767e9575fc9c4de09e1cc9a21fa72728ffe46e298e3eef4",
    "ecperf-p8-s1234-quick":
        "207fce1725edd6a9e9a870889c9e2694362fc1bade42aa60d85cf51fa821df4f",
    "ecperf-p8-s1235-quick":
        "543c3cc8019b6d4ecffb1dc0e8488c44fe4504cd9be313f00a81f0ddd9d73078",
    "fig12-ecperf-x8-p1-quick":
        "b60bc2c3ad5ce9c38c62c6309176ffff46a4a54907a674aa151966f1fb86eaa0",
    "fig12-specjbb-x1-p1-quick":
        "afa641200bd5cc35fe135a360a1d133e9042acd448161d277b457a87edbad6a4",
    "fig12-specjbb-x10-p1-quick":
        "838dedba8d95ae529965a2077dd30ac49fd7824268952134a11364546ad5df77",
    "fig12-specjbb-x25-p1-quick":
        "1fe5ce810738b27befc7b25d1710f829e05a287cad9b2174917a10c832b5372d",
    "specjbb-p1-s1234-figure":
        "b397d894915a4e4aaca6b22b629b2c33a0b0671f18cfab5d652e14f867474906",
    "specjbb-p1-s1234-quick":
        "afa641200bd5cc35fe135a360a1d133e9042acd448161d277b457a87edbad6a4",
    "specjbb-p1-s1235-quick":
        "9c59a7794c25a44cb0a06e7acf1dc7276c8c536091ee2819a291ddac6c300d63",
    "specjbb-p15-s1234-quick":
        "9d9b4e2e97cb0f4abe7fc5a12c501286c99d133e1eb315028ddab123ef24b4fd",
    "specjbb-p15-s1235-quick":
        "6947d6ccf72ffe099bde4fea07cb2313ba8ebdef63e96eaded1ba6f11f8c21f8",
    "specjbb-p2-s1234-quick":
        "5890fc24790da2b9faf5edd1e1c19090c2cda04f7b4f13266a0f759364fc294b",
    "specjbb-p2-s1235-quick":
        "f0cb699c9ff06db114b25271585175ed8fe6f9f53c5e3cee12d6e83d5e3a03e7",
    "specjbb-p8-s1234-quick":
        "f05d327087d11f618b29f0813ff18374fa7f6d01951a5207c5093d34f7aa7fa6",
    "specjbb-p8-s1235-quick":
        "38bb03108592db18abd501764845f4e6e6cea3073ef16f561dac2c23e3b9c18d",
    "volanomark-p1-s1234-quick":
        "45d92d7dbb38ddaf0496fdbad72ec97ee61dbb03e41cbd364ba7185978c7ac60",
    "volanomark-p4-s1234-quick":
        "26566f661cd58e1c6ca68201e6dcd680523515a8bc60a70ddd552faf41244be9",
}


def trace_digest(streams: Iterable[Iterable[np.ndarray]], instructions) -> str:
    """sha256 over length-prefixed per-processor streams, then instructions.

    Each stream is given as its chunks, so materialized and chunked
    traces hash the same way.
    """
    h = hashlib.sha256()
    for chunks in streams:
        parts = [np.ascontiguousarray(c, dtype="<u8") for c in chunks]
        h.update(sum(p.size for p in parts).to_bytes(8, "little"))
        for part in parts:
            h.update(part.tobytes())
    h.update(repr([int(n) for n in instructions]).encode())
    return h.hexdigest()


def _generate(case: Case):
    return case.make().generate(case.n_procs, case.sim, RngFactory(seed=case.sim.seed))


@pytest.mark.parametrize("case_id", sorted(CASES))
def test_generation_matches_recorded_digest(case_id):
    case = CASES[case_id]
    bundle = _generate(case)
    want = DIGESTS[case_id]
    assert trace_digest(([t] for t in bundle.per_cpu), bundle.instructions) == want
    if not case.chunked:
        return
    for chunk_refs in CHUNK_SIZES:
        chunked = case.make().generate_chunks(
            case.n_procs, case.sim, RngFactory(seed=case.sim.seed), chunk_refs
        )
        got = trace_digest(chunked.per_cpu, bundle.instructions)
        assert got == want, (case_id, chunk_refs)


def test_every_case_has_a_digest():
    assert sorted(DIGESTS) == sorted(CASES)


if __name__ == "__main__":
    print("DIGESTS = {")
    for case_id in sorted(CASES):
        bundle = _generate(CASES[case_id])
        digest = trace_digest(([t] for t in bundle.per_cpu), bundle.instructions)
        print(f'    "{case_id}":\n        "{digest}",')
    print("}")
