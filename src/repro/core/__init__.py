"""Characterization framework core.

Configuration objects, metric containers, parameter sweeps, text
reporting, and the high-level characterization API used by the figure
drivers.  Repeated perturbed runs (the Alameldeen–Wood variability
methodology) are campaign reps: see :mod:`repro.campaign`.
"""

from repro.core.config import (
    E6000,
    CacheConfig,
    MachineConfig,
    SimConfig,
    cmp_machine,
    e6000_machine,
)
from repro.core.metrics import CpiBreakdown, DataStallBreakdown, MissCounters, mpki
from repro.core.sweep import SweepResult, sweep

__all__ = [
    "E6000",
    "CacheConfig",
    "MachineConfig",
    "SimConfig",
    "cmp_machine",
    "e6000_machine",
    "CpiBreakdown",
    "DataStallBreakdown",
    "MissCounters",
    "mpki",
    "SweepResult",
    "sweep",
]
