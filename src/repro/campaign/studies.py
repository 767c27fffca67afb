"""Named studies: the run tables the CLI knows how to campaign over.

A *study* is a registered :class:`~repro.campaign.table.CampaignSpec`
factory — ``jmmw campaign run <study>`` looks the name up here.  Cell
functions are module-level (workers import them by reference) and pure
given their arguments, so every executor produces bit-identical cells.

Three studies ship:

- ``smoke`` — arithmetic only, milliseconds per cell; exists so the
  campaign machinery (scheduling, resume, chaos, CLI exit codes) can
  be exercised without simulating anything;
- ``ablation`` — the paper's protocol x workload ablation matrix
  (Section 4): MOSI vs MSI coherence over ECperf and SPECjbb, each
  point repeated with perturbed seeds per the Alameldeen–Wood
  variability methodology, reporting machine-wide data MPKI,
  cache-to-cache transfer ratio and absolute L2 misses;
- ``saturation`` — workload x population cells of the closed-loop
  load plane (:mod:`repro.loadplane`), reporting throughput, the
  operational response time and pool utilizations per point, with
  reps perturbing the event-stream seed.

:func:`characterize_spec` is not a study: it is the one-point table
``jmmw characterize --runs R`` runs, R reps of :func:`characterize_cell`.
Each cell function keeps its own seeding rule: ablation cells seed
``QUICK_SIM.seed + rep``, saturation cells ``1234 + rep``, and
characterize cells draw a sub-seed from ``RngFactory(seed,
run_index=rep)``.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, replace
from typing import Any

from repro.campaign.table import Axis, CampaignSpec, RunTable
from repro.core.config import SimConfig
from repro.errors import ConfigError


def smoke_cell(point: dict, rep: int, *, scale: int = 1) -> dict:
    """Deterministic arithmetic on the point — no simulation at all."""
    digest = hashlib.sha256(
        f"{sorted(point.items())}/{rep}/{scale}".encode()
    ).digest()
    base = int.from_bytes(digest[:8], "little") / 2**64
    return {"value": base * scale, "rep": float(rep)}


def ablation_cell(
    point: dict, rep: int, *, n_procs: int = 2, refs: int = 20_000
) -> dict:
    """One protocol x workload cell: simulate and report paper metrics.

    The rep index perturbs the trace seed (not the configuration), so
    repetitions sample the workload's intrinsic variability.
    """
    from repro.figures.common import QUICK_SIM, figure_trace, simulate_multiprocessor
    from repro.harness.traceplane import TraceSpec

    sim = replace(QUICK_SIM, seed=QUICK_SIM.seed + rep, refs_per_proc=refs)
    spec = TraceSpec.official(point["workload"], n_procs, sim)
    hierarchy = simulate_multiprocessor(
        figure_trace(spec), sim, protocol=point["protocol"]
    )
    return {
        "data_mpki": hierarchy.data_mpki(),
        "c2c_ratio": hierarchy.c2c_ratio(),
        "l2_misses": float(hierarchy.total_l2_misses),
    }


def loadplane_cell(
    point: dict,
    rep: int,
    *,
    threads: int = 8,
    connections: int = 8,
    service_s: float = 0.02,
    think_s: float = 1.2,
    windows: int = 6,
    window_s: float = 1.0,
) -> dict:
    """One closed-loop load-plane point: simulate and report rates.

    The rep index perturbs the event-stream seed only, so repetitions
    sample the queueing model's intrinsic variability around the same
    operating point.
    """
    from repro.loadplane import LoadPlaneConfig, simulate_loadplane

    config = LoadPlaneConfig(
        n_users=point["users"],
        threads=threads,
        connections=connections,
        service_s=service_s,
        think_s=think_s,
        workload=point["workload"],
        windows=windows,
        window_s=window_s,
        seed=1234 + rep,
    )
    result = simulate_loadplane(config)
    stable = result.stable
    return {
        "throughput": stable.throughput,
        "response_s": stable.response_time_s,
        "p95_s": stable.p95_s,
        "thread_util": stable.thread_utilization,
        "conn_util": stable.conn_utilization,
        "events": float(result.events),
    }


def characterize_cell(point: dict, rep: int, **sim: Any) -> dict:
    """One replica of ``jmmw characterize --runs R``: the headline
    metrics of one workload at one machine size.

    ``sim`` holds a :class:`~repro.core.config.SimConfig`'s fields (a
    campaign's kwargs are JSON).  The rep perturbs the run the
    Alameldeen–Wood way: ``RngFactory(seed, run_index=rep)`` draws the
    simulation's sub-seed, so a cell is deterministic given ``(seed,
    rep)`` whichever process runs it.  Replicas share no traces: each
    perturbs its own generation seed.
    """
    from repro.core.characterize import characterize
    from repro.rng import RngFactory

    config = SimConfig(**sim)
    factory = RngFactory(config.seed, run_index=rep)
    sub_seed = int(factory.stream("characterize-replica").integers(1, 2**31))
    report = characterize(
        point["workload"], n_procs=point["procs"],
        sim=replace(config, seed=sub_seed),
    )
    return {
        "l1i_mpki": report.l1i_mpki,
        "l1d_mpki": report.l1d_mpki,
        "l2_data_mpki": report.l2_data_mpki,
        "c2c_ratio": report.c2c_ratio,
        "cpi": report.cpi.total,
    }


def _smoke_spec(reps: int, quick: bool) -> CampaignSpec:
    return CampaignSpec(
        name="smoke",
        table=RunTable(
            name="smoke",
            axes=(
                Axis("alpha", (1, 2, 3)),
                Axis("beta", ("x", "y")),
            ),
            reps=reps,
        ),
        fn=smoke_cell,
        kwargs={"scale": 10},
    )


def _ablation_spec(reps: int, quick: bool) -> CampaignSpec:
    return CampaignSpec(
        name="ablation",
        table=RunTable(
            name="ablation",
            axes=(
                Axis("protocol", ("mosi", "msi")),
                Axis("workload", ("ecperf", "specjbb")),
            ),
            reps=reps,
        ),
        fn=ablation_cell,
        kwargs={"n_procs": 2, "refs": 6_000 if quick else 20_000},
    )


def _saturation_spec(reps: int, quick: bool) -> CampaignSpec:
    return CampaignSpec(
        name="saturation",
        table=RunTable(
            name="saturation",
            axes=(
                Axis("workload", ("uniform", "ecperf")),
                Axis(
                    "users",
                    (32, 256, 1024) if quick else (100, 1_000, 10_000, 100_000),
                ),
            ),
            reps=reps,
        ),
        fn=loadplane_cell,
        kwargs={"windows": 4 if quick else 6, "window_s": 0.5 if quick else 1.0},
    )


#: study name -> factory(reps, quick) -> CampaignSpec
STUDIES = {
    "smoke": _smoke_spec,
    "ablation": _ablation_spec,
    "saturation": _saturation_spec,
}


def characterize_spec(
    workload: str, n_procs: int, runs: int, sim: SimConfig
) -> CampaignSpec:
    """``jmmw characterize W -p P --runs R``: one point, R reps."""
    return CampaignSpec(
        name="characterize",
        table=RunTable(
            name="characterize",
            axes=(Axis("workload", (workload,)), Axis("procs", (n_procs,))),
            reps=runs,
        ),
        fn=characterize_cell,
        kwargs=asdict(sim),
    )


def get_study(name: str, *, reps: int = 2, quick: bool = False) -> CampaignSpec:
    """Resolve a registered study to a concrete campaign spec."""
    factory = STUDIES.get(name)
    if factory is None:
        known = ", ".join(sorted(STUDIES))
        raise ConfigError(f"unknown study {name!r} (known: {known})")
    if reps < 1:
        raise ConfigError("reps must be at least 1")
    return factory(reps, quick)
