"""Configuration objects for machines, caches and simulations.

Cache/machine geometry lives in :mod:`repro.memsys.config` (it is a
memory-system concern); this module re-exports it and adds the
simulation-control config so callers have one import site::

    from repro.core.config import E6000, CacheConfig, SimConfig
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import ConfigError
from repro.memsys.config import (
    E6000,
    CacheConfig,
    MachineConfig,
    cmp_machine,
    e6000_machine,
    next_generation_machine,
)

__all__ = [
    "E6000",
    "CacheConfig",
    "MachineConfig",
    "SimConfig",
    "cmp_machine",
    "e6000_machine",
    "next_generation_machine",
]


@dataclass(frozen=True)
class SimConfig:
    """Knobs controlling simulation effort and reproducibility.

    ``refs_per_proc`` bounds the number of memory references each
    simulated processor issues per measurement interval.  The paper ran
    full benchmarks under Simics; we expose the interval length so test
    suites run in seconds while figure benches use longer intervals.
    """

    seed: int = 1234
    refs_per_proc: int = 200_000
    warmup_fraction: float = 0.2
    interleave_quantum: int = 64

    def __post_init__(self) -> None:
        if self.refs_per_proc <= 0:
            raise ConfigError("refs_per_proc must be positive")
        if not 0.0 <= self.warmup_fraction < 1.0:
            raise ConfigError("warmup_fraction must be in [0, 1)")
        if self.interleave_quantum <= 0:
            raise ConfigError("interleave_quantum must be positive")

    def with_refs(self, refs_per_proc: int) -> "SimConfig":
        return replace(self, refs_per_proc=refs_per_proc)
