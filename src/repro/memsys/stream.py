"""Chunked miss-curve sweeps: constant-memory replay of one trace.

:func:`simulate_miss_curve_stream` is the miss-curve sweep, the one
path behind :func:`repro.memsys.multisim.simulate_miss_curve` (a
materialized trace is replayed as a one-chunk stream).  It consumes any
iterator of ``uint64`` chunks plus the trace's *declared* length, which
places the warmup split before the first chunk arrives: a workload's
``generate_chunks`` output, slices of an array, or a single array.
Every geometry's cache lives across chunk boundaries, in the compiled
sweep step (:class:`repro.memsys.fastpath_coherence.SweepSession`) or
in the scalar reference
(:class:`repro.memsys.multisim.MultiConfigSimulator`), so a boundary
has nothing to carry and peak memory follows the chunk, not the trace.

Hierarchy replay does not stream: it takes materialized per-processor
traces (:meth:`repro.memsys.hierarchy.MemoryHierarchy.run_trace`).

Points do not depend on where chunk boundaries fall — enforced by
``tests/memsys/test_stream_parity.py``,
``tests/memsys/test_sweep_kernel.py`` and the multi-chunk sweeps in the
miss-curve rows of :data:`repro.obs.diffcheck.FIGURE_DIFF_CONFIGS`.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro import obs as _obs
from repro.errors import ConfigError, SimulationError
from repro.memsys.config import CacheConfig
from repro.memsys.fastpath import as_ref_array, fastpath_enabled
from repro.memsys.multisim import MissCurvePoint, MultiConfigSimulator


# -- streaming miss curves ---------------------------------------------------


def simulate_miss_curve_stream(
    chunks: Iterable[np.ndarray],
    total_refs: int,
    sizes: list[int],
    kind: str,
    assoc: int = 4,
    block: int = 64,
    warmup_fraction: float = 0.2,
    fastpath: bool | None = None,
) -> list[MissCurvePoint]:
    """Miss rate (MPKI) at each cache size, from one chunked trace.

    ``chunks`` yields the trace in order, each chunk a one-dimensional
    array (one processor's ``generate_chunks`` iterator, slices of an
    array, or ``[array]``); a chunk of any other shape raises
    :class:`~repro.errors.ConfigError` before either path sees it.
    ``total_refs`` is the declared length, which places the warmup
    split.  With ``fastpath`` on (the default, ``None``, follows
    :func:`repro.memsys.fastpath.fastpath_enabled`) the compiled step
    (:class:`~repro.memsys.fastpath_coherence.SweepSession`) is asked
    once, before any chunk is consumed; ``False``, or a decline, runs
    the scalar reference
    :class:`~repro.memsys.multisim.MultiConfigSimulator`.  Both keep
    their caches across chunks and give bit-identical points at any
    chunking.
    """
    if not sizes:
        raise ConfigError("need at least one cache config")
    if kind not in ("instr", "data"):
        raise ConfigError(f"kind must be 'instr' or 'data', got {kind!r}")
    if not 0.0 <= warmup_fraction < 1.0:
        raise ConfigError("warmup_fraction must be in [0, 1)")
    configs = [
        CacheConfig(size=s, assoc=assoc, block=block, name=f"{kind}-{s}")
        for s in sizes
    ]
    use_fast = fastpath_enabled() if fastpath is None else fastpath
    split = int(total_refs * warmup_fraction)
    with _obs.span(
        "memsys/miss_curve",
        kind=kind, points=len(sizes), refs=total_refs, fastpath=use_fast,
    ) as span:
        sweep = None
        if use_fast:
            from repro.memsys.fastpath_coherence import SweepSession

            sweep = SweepSession.begin(configs, kind)
        span.annotate(sweep="reference" if sweep is None else "kernel")
        if sweep is None:
            _obs.incr("memsys/multisim/scalar_replays")
            sim = MultiConfigSimulator(
                configs, kind=kind, warmup_fraction=warmup_fraction
            )
            if split == 0:
                sim.mark_warm()
        pos = 0
        for chunk in chunks:
            refs = as_ref_array(chunk)
            n = int(refs.size)
            if pos + n > total_refs:
                raise SimulationError(
                    f"chunk overruns the declared trace length: {pos} + {n} "
                    f"> {total_refs}"
                )
            if sweep is not None:
                sweep.feed(refs, min(max(split - pos, 0), n))
            elif pos < split <= pos + n:
                sim.replay(refs[: split - pos])
                sim.mark_warm()
                sim.replay(refs[split - pos :])
            else:
                sim.replay(refs)
            pos += n
        if pos != total_refs:
            raise SimulationError(
                f"stream incomplete: {pos} of {total_refs} declared "
                "references fed"
            )
        return sweep.points() if sweep is not None else sim.results()
