"""Picklable task functions and task builders.

Process pools ship tasks to workers by pickling ``(fn, args)``, which
rules out closures — so the standard units of work (run a figure,
characterize one replica of a workload, replay one shard of a
miss-curve sweep) live here as module-level functions, together with
the builders that wrap them into
:class:`~repro.harness.runner.Task` batches with content-addressed
cache keys.

Builders take an optional
:class:`~repro.harness.traceplane.TracePlane` (``jmmw figures`` always
passes one): with one, a trace that several tasks of a batch replay
is generated **once** in the parent and published as a shared-memory
segment, each task carries only the tiny
:class:`~repro.harness.traceplane.TraceRef` handles it needs
(``plane_refs``), and the runner refcounts segment lifetime through
``Task.plane_keys``.  Every other trace is generated inside the one
task that replays it — bit-identical results either way, so cache
keys do not record which.  Figure tasks learn their traces from each
module's ``trace_specs(sim)`` (:func:`figure_trace_specs`).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace
from functools import partial
from typing import TYPE_CHECKING, Sequence

from repro.core.config import SimConfig
from repro.harness.cache import content_key
from repro.harness.runner import Task
from repro.rng import RngFactory

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.harness.traceplane import TracePlane, TraceRef, TraceSpec


def figure_cache_key(module_name: str, sim: SimConfig) -> str:
    """Cache key for one figure at one simulation effort.

    Beyond the figure and its :class:`SimConfig`, the key records two
    switches whose cache hit would silently skip requested work: the
    replay path (``fastpath``: a scalar-reference run must not be
    served a vectorized result) and invariant checking (a checked run
    must not serve an unchecked result).  Whether the compiled kernel
    is available, and whether traces arrived through the trace plane,
    are left out: both are bit-identical by contract, and the parity
    suites and ``jmmw diffcheck`` hold that contract.
    """
    from repro.memsys.fastpath import fastpath_enabled
    from repro.memsys.invariants import checking_enabled

    return content_key(
        kind="figure",
        module=module_name,
        sim=sim,
        fastpath=fastpath_enabled(),
        checked=checking_enabled(),
    )


def figure_trace_specs(module_name: str, sim: SimConfig) -> "list[TraceSpec]":
    """The traces one figure module's ``run`` replays: its ``trace_specs(sim)``."""
    import importlib

    module = importlib.import_module(f"repro.figures.{module_name}")
    return list(module.trace_specs(sim))


def build_figure_tasks(
    module_names: list[str],
    sim: SimConfig,
    plane: "TracePlane | None" = None,
    cache=None,
    manifest=None,
) -> list[Task]:
    """One harness task per figure module, keyed by figure id.

    With a ``plane``, a trace that two or more to-run tasks declare is
    published once here and those tasks ship its ref; a trace only one
    task declares is generated inside that task, instead of holding
    shared memory for the whole run.  A task ``cache`` or ``manifest``
    will serve back uses no trace.  The hint is advisory: a task that
    runs after all (quarantined entry, torn journal) finds no refs
    installed and generates its traces, bit-identically.
    """
    from repro.figures.common import run_figure

    planned = []
    for name in module_names:
        key = name.split("_", 1)[0]
        cache_key = figure_cache_key(name, sim)
        served = (manifest is not None and key in manifest.completed) or (
            cache is not None and cache.probably_has(cache_key)
        )
        specs = [] if plane is None or served else figure_trace_specs(name, sim)
        planned.append((name, key, cache_key, {s.key(): s for s in specs}))
    users = Counter(spec_key for *_, specs in planned for spec_key in specs)
    tasks = []
    for name, key, cache_key, specs in planned:
        shared = [spec for spec_key, spec in specs.items() if users[spec_key] > 1]
        refs = plane.refs_for(shared) if shared else {}
        tasks.append(
            Task(
                key=key,
                fn=run_figure,
                args=(name, sim),
                kwargs={"plane_refs": refs} if refs else {},
                cache_key=cache_key,
                plane_keys=tuple(refs),
            )
        )
    return tasks


def miss_curve_shard(
    spec: "TraceSpec",
    sizes: Sequence[int],
    kind: str,
    assoc: int = 4,
    block: int = 64,
    warmup_fraction: float = 0.5,
    plane_refs: "dict[str, TraceRef] | None" = None,
) -> list[tuple[int, int, int, float]]:
    """Replay one shard (a subset of cache sizes) of a miss-curve sweep.

    The trace comes through :func:`~repro.figures.common.figure_trace`:
    from the plane when a ref for ``spec`` is installed, generated
    locally otherwise — the simulated points are identical either way,
    because generation is a pure function of the spec.  Returns plain
    ``(size, accesses, misses, mpki)`` tuples so the result pickles
    small.
    """
    from repro.figures.common import figure_trace
    from repro.harness import traceplane
    from repro.memsys.multisim import simulate_miss_curve

    with traceplane.use_refs(plane_refs):
        points = simulate_miss_curve(
            figure_trace(spec).merged(),
            list(sizes),
            kind=kind,
            assoc=assoc,
            block=block,
            warmup_fraction=warmup_fraction,
        )
    return [(p.size, p.accesses, p.misses, p.mpki) for p in points]


def build_miss_curve_sweep_tasks(
    spec: "TraceSpec",
    sizes: Sequence[int],
    kind: str,
    *,
    shards: int | None = None,
    plane: "TracePlane | None" = None,
    assoc: int = 4,
    block: int = 64,
    warmup_fraction: float = 0.5,
    cacheable: bool = False,
) -> list[Task]:
    """A generate-once/replay-many miss-curve sweep over one trace.

    The sweep's sizes are split into ``shards`` contiguous chunks
    (default: one task per size), each an independent harness task;
    concatenating the shard results in task order reproduces the
    single-call :func:`repro.memsys.multisim.simulate_miss_curve`
    points exactly, because each size's simulation is independent and
    the warmup split depends only on the trace.
    """
    sizes = list(sizes)
    shards = len(sizes) if shards is None else max(1, min(shards, len(sizes)))
    chunks: list[list[int]] = [[] for _ in range(shards)]
    base, extra = divmod(len(sizes), shards)
    start = 0
    for index in range(shards):
        stop = start + base + (1 if index < extra else 0)
        chunks[index] = sizes[start:stop]
        start = stop
    kwargs: dict = {}
    plane_keys: tuple = ()
    if plane is not None:
        refs = plane.refs_for([spec])
        kwargs["plane_refs"] = refs
        plane_keys = tuple(refs)
    tasks = []
    for index, chunk in enumerate(chunks):
        cache_key = None
        if cacheable:
            cache_key = content_key(
                kind="miss-curve-shard",
                spec=spec.key(),
                sizes=chunk,
                curve=kind,
                assoc=assoc,
                block=block,
                warmup_fraction=warmup_fraction,
            )
        tasks.append(
            Task(
                key=f"sweep/{kind}/shard{index}",
                fn=miss_curve_shard,
                args=(spec, chunk, kind),
                kwargs=dict(
                    assoc=assoc,
                    block=block,
                    warmup_fraction=warmup_fraction,
                    **kwargs,
                ),
                cache_key=cache_key,
                plane_keys=plane_keys,
            )
        )
    return tasks


def characterize_replica(
    workload: str, n_procs: int, sim: SimConfig, factory: RngFactory
) -> dict[str, float]:
    """One replica of a workload characterization, as named quantities.

    The replica's entire perturbation comes from ``factory`` (seed +
    ``run_index``), which re-seeds the simulation through a drawn
    sub-seed — the Alameldeen–Wood discipline.  Deterministic given
    ``(sim.seed, run_index)`` regardless of which process runs it.

    Replicas deliberately share **no** traces through the plane: the
    variability methodology requires each replica to perturb its own
    generation seed, so there is nothing to generate once.
    """
    from repro.core.characterize import characterize

    sub_seed = int(factory.stream("characterize-replica").integers(1, 2**31))
    report = characterize(workload, n_procs=n_procs, sim=replace(sim, seed=sub_seed))
    return {
        "l1i_mpki": report.l1i_mpki,
        "l1d_mpki": report.l1d_mpki,
        "l2_data_mpki": report.l2_data_mpki,
        "c2c_ratio": report.c2c_ratio,
        "cpi": report.cpi.total,
    }


def characterize_run_fn(workload: str, n_procs: int, sim: SimConfig):
    """A picklable ``RunFn`` for :func:`repro.core.experiment.run_repeated`."""
    return partial(characterize_replica, workload, n_procs, sim)


def characterize_cache_key(
    workload: str, n_procs: int, sim: SimConfig, seed: int, run_index: int
) -> str:
    """Cache key for one characterization replica."""
    from repro.memsys.invariants import checking_enabled

    return content_key(
        kind="characterize-replica",
        workload=workload,
        n_procs=n_procs,
        sim=sim,
        seed=seed,
        run_index=run_index,
        checked=checking_enabled(),
    )


# -- campaign signatures -----------------------------------------------------
#
# A campaign signature describes one CLI invocation's entire batch of
# work.  It goes through content_key, so it already folds in the
# package code version: a manifest journaled by different code refuses
# to resume, which is what makes resumed results bit-identical.


def figures_campaign_signature(module_names: list[str], sim: SimConfig) -> str:
    """Signature of one ``jmmw figures`` campaign."""
    from repro.memsys.fastpath import fastpath_enabled
    from repro.memsys.invariants import checking_enabled

    return content_key(
        kind="figures-campaign",
        modules=tuple(module_names),
        sim=sim,
        fastpath=fastpath_enabled(),
        checked=checking_enabled(),
    )


def characterize_campaign_signature(
    workload: str, n_procs: int, sim: SimConfig, n_runs: int
) -> str:
    """Signature of one ``jmmw characterize --runs N`` campaign."""
    from repro.memsys.fastpath import fastpath_enabled
    from repro.memsys.invariants import checking_enabled

    return content_key(
        kind="characterize-campaign",
        workload=workload,
        n_procs=n_procs,
        sim=sim,
        n_runs=n_runs,
        fastpath=fastpath_enabled(),
        checked=checking_enabled(),
    )
