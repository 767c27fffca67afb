"""repro — reproduction of "Memory System Behavior of Java-Based Middleware".

Karlsson, Moore, Hagersten & Wood, HPCA 2003.

The package provides, from the bottom up:

- :mod:`repro.memsys` — a multiprocessor memory-system simulator
  (set-associative caches, MOSI snooping coherence, shared-L2 CMP
  configurations, store buffer, TLB);
- :mod:`repro.jvm` — a generational JVM heap with a single-threaded
  copying collector;
- :mod:`repro.appserver`, :mod:`repro.osmodel`, :mod:`repro.net` —
  the application-server, OS and network substrate models;
- :mod:`repro.workloads` — synthetic SPECjbb2000 and ECperf workload
  models that generate multi-threaded memory reference streams;
- :mod:`repro.cpu`, :mod:`repro.perfmodel` — the CPI/stall
  decomposition and throughput-scaling models;
- :mod:`repro.figures` — one driver per paper figure (4-16);
- :mod:`repro.harness` — the parallel experiment engine under every
  figure, sweep and campaign (process-pool fan-out, content-addressed
  result caching, fault policy);
- :mod:`repro.campaign` — run tables of configurations x perturbed
  repetitions, reported mean ± std (the paper's multi-run method);
- :mod:`repro.obs` — the one observability recorder: events and
  counters, opt-in spans, one JSONL file.

Quickstart::

    from repro import quick_characterization
    print(quick_characterization("specjbb", warehouses=4))
"""

from repro.core.config import (
    E6000,
    CacheConfig,
    MachineConfig,
    SimConfig,
    cmp_machine,
    e6000_machine,
)
from repro.core.characterize import (
    CharacterizationReport,
    characterize,
    quick_characterization,
)
from repro.core.metrics import CpiBreakdown, DataStallBreakdown, MissCounters, mpki
from repro.core.sweep import SweepResult, sweep
from repro.harness import (
    FaultPolicy,
    ResultCache,
    Task,
    TaskFailure,
    TaskOutcome,
    run_tasks,
)
from repro.errors import (
    AnalysisError,
    ConfigError,
    ReproError,
    SimulationError,
    WorkloadError,
)
from repro.memsys import (
    E6000_LATENCIES,
    LatencyBook,
    MemoryHierarchy,
    MOSIBus,
    MultiConfigSimulator,
    SetAssociativeCache,
    StackDistanceProfiler,
    StoreBuffer,
    Tlb,
    simulate_miss_curve,
)
from repro.rng import RngFactory

__version__ = "1.0.0"

__all__ = [
    "E6000",
    "CacheConfig",
    "MachineConfig",
    "SimConfig",
    "cmp_machine",
    "e6000_machine",
    "CharacterizationReport",
    "characterize",
    "quick_characterization",
    "SweepResult",
    "sweep",
    "FaultPolicy",
    "ResultCache",
    "Task",
    "TaskFailure",
    "TaskOutcome",
    "run_tasks",
    "CpiBreakdown",
    "DataStallBreakdown",
    "MissCounters",
    "mpki",
    "AnalysisError",
    "ConfigError",
    "ReproError",
    "SimulationError",
    "WorkloadError",
    "E6000_LATENCIES",
    "LatencyBook",
    "MemoryHierarchy",
    "MOSIBus",
    "MultiConfigSimulator",
    "SetAssociativeCache",
    "StackDistanceProfiler",
    "StoreBuffer",
    "Tlb",
    "simulate_miss_curve",
    "RngFactory",
    "__version__",
]
