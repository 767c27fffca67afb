"""Load-plane results, pinned bit for bit by recorded digests.

The queueing-oracle suite checks statistics inside a band, so a change
that moves every run a little passes it.  The digests below were
recorded with the per-user warm-start placement (one ``_arrive`` per
placed user, one ``idle_pool.add`` per idle one); any change to the
state a run starts from, to the order of its RNG draws or to its
accounting fails here.

One digest covers one whole :class:`LoadPlaneResult`: every
``WindowStats`` field, each window histogram's counts, total and
``sum_s``, the stable aggregate, the event count and the pool
counters.  Floats enter as ``float.hex``, so the digest pins their
bits.  The ``saturation`` study's points run through
``loadplane_cell``, and the cell's own metrics are hashed with the
result it was built from.

The cases straddle the engine's 8,192-draw RNG block (a zero-think
closed loop places every user, so 8,191 .. 8,193 and 24,577 users end
placement just before, on and after a refill), saturate the thread
pool with 100,000 users per mix, and cover the open loop, a cold start
and a population below the thread count.

Every case runs on both paths of the event loop: the compiled events
step (``JMMW_FASTPATH=1``, when the kernel library holds it) and the
Python reference loop (``JMMW_FASTPATH=0``), whose state changes must
also survive ``python -O``.

A deliberate change to the load plane re-records the table with
``PYTHONPATH=src python tests/loadplane/test_result_digests.py``.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from dataclasses import astuple, fields
from pathlib import Path

import numpy as np
import pytest

from repro import loadplane
from repro.campaign.studies import get_study
from repro.loadplane import LoadPlaneConfig, LoadPlaneResult, WindowStats

#: Short horizons: the cases pin the start state and the first events
#: after it, not long-run statistics.
_SHORT = dict(windows=4, window_s=0.5)


def _configs() -> dict[str, LoadPlaneConfig]:
    cases = {}
    for n_users in (8_191, 8_192, 8_193, 24_577):
        cases[f"zero-think-uniform-u{n_users}"] = LoadPlaneConfig(
            n_users=n_users, think_s=0.0, **_SHORT
        )
    cases["zero-think-ecperf-u8193"] = LoadPlaneConfig(
        n_users=8_193, think_s=0.0, workload="ecperf", connections=2, **_SHORT
    )
    for workload in ("uniform", "ecperf", "specjbb"):
        cases[f"saturated-{workload}-u100000"] = LoadPlaneConfig(
            n_users=100_000, workload=workload, **_SHORT
        )
    cases["open-loop-u2000"] = LoadPlaneConfig(
        n_users=2_000, open_loop=True, arrival_rate=380.0, think_s=0.0,
        seed=41, **_SHORT
    )
    cases["cold-start-u5000"] = LoadPlaneConfig(
        n_users=5_000, warm_start=False, seed=42, **_SHORT
    )
    cases["below-threads-u5"] = LoadPlaneConfig(
        n_users=5, threads=8, think_s=0.0, windows=8, window_s=0.5, seed=43
    )
    return cases


CONFIGS = _configs()

#: The ``saturation`` study at full size, rep 0: one case per point.
STUDY = get_study("saturation", reps=1)
STUDY_POINTS = {
    "study-{workload}-u{users}".format(**cell.point_dict): cell.point_dict
    for cell in STUDY.table.cells()
}

DIGESTS = {
    "below-threads-u5":
        "a7c8ab0f239c8d914efeb410c866bbe712fc038000984d2fe7c7b3fa7ac98b54",
    "cold-start-u5000":
        "1e9fd95ea50f4b148477ad86a7cdb3949f880d6c6823a6304ff3756b6d1c777b",
    "open-loop-u2000":
        "ba452f5e01938d88f9f301016226d7df65eefde559fe90a4a8a5a3298830744a",
    "saturated-ecperf-u100000":
        "5e2d4e1c11a8d5ce11a80de38ace45580afef8489ec71623c6d85d2e855d1298",
    "saturated-specjbb-u100000":
        "e0c1a80fefb3ae8f1b7360e4821851e21046e42046e16cc9a3a4709f1d4bed37",
    "saturated-uniform-u100000":
        "cfc6f9f254a28b825c26c14c2102d72aa54992a146bb1dd354c20ceb041ab9e3",
    "study-ecperf-u100":
        "c3458406ab76c9aba292208935ef087f32b3114d3abe91d97241385abfe4c5bb",
    "study-ecperf-u1000":
        "c3494aacdf56e4ee2af4c92685928d7446786055168923592c14487987c256e5",
    "study-ecperf-u10000":
        "4eddd5611d76b9c24a959e5fac5ed34d890de32179bd27fe98df00464051747b",
    "study-ecperf-u100000":
        "d95da4ec9834c6c7ee8c216fb44f7956a7f1db04786b5068c7d924d299595e51",
    "study-uniform-u100":
        "f538d29e1e78f90e69eb449054f199113a450d0f26f16fbe36be559be855a915",
    "study-uniform-u1000":
        "d692dc4767e3126d91c1464cca68e3be222fe46364ab8c2b5d06be5975501eca",
    "study-uniform-u10000":
        "ced21855ee9171fd18d17bff47615ea021bcd97e7baa160d7e55dd35bedfa639",
    "study-uniform-u100000":
        "987ac70dcaf00986cec41b7cdd0582e291a57867fa6ff71cb852e3db99dd7e1f",
    "zero-think-ecperf-u8193":
        "17c36bb53a087b7149ff8fcd4c3ecaa110d09424d9e03bf21807438474a5788d",
    "zero-think-uniform-u24577":
        "6223ff7091e29cf751adb92bb7fea2c2d4f5da889dda951b187200633b79a921",
    "zero-think-uniform-u8191":
        "53b481ac7828fcd742eb2ad59d4805c6c1982fb1ecae1472e7786779f44b4a00",
    "zero-think-uniform-u8192":
        "94cd78076b36b650ad90921348670292b0d763d0e6fca7011c522de006b58ef7",
    "zero-think-uniform-u8193":
        "38fa369ad2746375ab481060876f4374a80b3a4f77fba729d0c36b37b5c2c9e9",
}


def _canon(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return float(value).hex()


def result_digest(result: LoadPlaneResult, extra: dict | None = None) -> str:
    """sha256 over a canonical dump of one result (and a cell's metrics)."""
    h = hashlib.sha256()

    def put(values) -> None:
        h.update((",".join(_canon(v) for v in values) + "\n").encode())

    window_fields = [f.name for f in fields(WindowStats) if f.name != "hist"]
    for window in result.windows:
        put(getattr(window, name) for name in window_fields)
        put((window.hist.total, window.hist.sum_s))
        h.update(np.ascontiguousarray(window.hist.counts, dtype="<i8").tobytes())
    put(astuple(result.stable))
    put((
        result.events,
        result.thread_acquires, result.thread_rejected, result.thread_peak,
        result.conn_acquires, result.conn_blocked, result.conn_peak,
    ))
    h.update(repr(result.identity_errors).encode())
    if extra is not None:
        for name in sorted(extra):
            h.update(name.encode())
            put((extra[name],))
    return h.hexdigest()


def _study_cell(point: dict) -> tuple[LoadPlaneResult, dict]:
    """Run one study cell through ``loadplane_cell``, keeping its result."""
    kept = []
    simulate = loadplane.simulate_loadplane

    def keep(config, **kwargs):
        kept.append(simulate(config, **kwargs))
        return kept[-1]

    loadplane.simulate_loadplane = keep
    try:
        metrics = STUDY.fn(point, 0, **STUDY.kwargs)
    finally:
        loadplane.simulate_loadplane = simulate
    (result,) = kept
    return result, metrics


def case_digest(case_id: str) -> str:
    if case_id in CONFIGS:
        return result_digest(loadplane.simulate_loadplane(CONFIGS[case_id]))
    return result_digest(*_study_cell(STUDY_POINTS[case_id]))


ALL_CASES = sorted([*CONFIGS, *STUDY_POINTS])


@pytest.mark.parametrize("case_id", ALL_CASES)
def test_result_matches_recorded_digest(case_id, monkeypatch):
    """The default path: the compiled events step where it is built."""
    monkeypatch.setenv("JMMW_FASTPATH", "1")
    assert case_digest(case_id) == DIGESTS[case_id]


@pytest.mark.parametrize("case_id", ALL_CASES)
def test_reference_matches_recorded_digest(case_id, monkeypatch):
    """The Python event loop, the reference the step reproduces."""
    monkeypatch.setenv("JMMW_FASTPATH", "0")
    assert case_digest(case_id) == DIGESTS[case_id]


def test_reference_matches_recorded_digest_under_python_O():
    """``python -O`` strips ``assert`` statements, so no state change of
    the reference may live in one (a waiter's thread or connection once
    did)."""
    case_id = "zero-think-ecperf-u8193"
    script = (
        "import sys; sys.path.insert(0, sys.argv[1]); "
        "from test_result_digests import case_digest; "
        "print(__debug__, case_digest(sys.argv[2]))"
    )
    root = Path(__file__).resolve().parents[2]
    env = {**os.environ, "PYTHONPATH": str(root / "src"), "JMMW_FASTPATH": "0"}
    out = subprocess.run(
        [sys.executable, "-O", "-c", script, str(Path(__file__).parent), case_id],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["False", DIGESTS[case_id]]


def test_every_case_has_a_digest():
    assert sorted(DIGESTS) == ALL_CASES
    assert len(STUDY_POINTS) == 8


if __name__ == "__main__":
    print("DIGESTS = {")
    for case_id in ALL_CASES:
        print(f'    "{case_id}":\n        "{case_digest(case_id)}",')
    print("}")
