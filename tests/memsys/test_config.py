"""Machine/cache/simulation config validation and presets."""

import pytest

from repro.core.config import SimConfig
from repro.errors import ConfigError
from repro.memsys.config import (
    E6000,
    CacheConfig,
    MachineConfig,
    cmp_machine,
    e6000_machine,
)
from repro.units import kb, mb


def test_e6000_preset_matches_paper():
    assert E6000.n_procs == 16
    assert E6000.l2.size == mb(1)
    assert E6000.l2.assoc == 4
    assert E6000.l2.block == 64
    assert E6000.procs_per_l2 == 1
    assert E6000.clock_hz == 248_000_000
    assert E6000.latencies.c2c_penalty_ratio == pytest.approx(1.4, abs=0.01)


def test_cache_geometry():
    cfg = CacheConfig(size=mb(1), assoc=4, block=64)
    assert cfg.n_sets == 4096
    assert cfg.block_bits == 6
    assert cfg.set_mask == 4095
    assert cfg.scaled(mb(2)).n_sets == 8192


def test_machine_sharing_validation():
    with pytest.raises(ConfigError):
        MachineConfig(n_procs=8, procs_per_l2=3)
    with pytest.raises(ConfigError):
        MachineConfig(n_procs=0)
    m = cmp_machine(8, 4)
    assert m.n_l2_caches == 2


def test_with_procs_and_shared_l2():
    m = e6000_machine(8).with_procs(4).with_shared_l2(2)
    assert m.n_procs == 4
    assert m.n_l2_caches == 2


def test_describe_strings():
    assert "private L2s" in e6000_machine(2).describe()
    assert "per shared L2" in cmp_machine(8, 8).describe()
    assert "64 KB" in CacheConfig(size=kb(64), assoc=4, block=64).describe()


def test_sim_config_validation():
    with pytest.raises(ConfigError):
        SimConfig(refs_per_proc=0)
    with pytest.raises(ConfigError):
        SimConfig(warmup_fraction=1.0)
    with pytest.raises(ConfigError):
        SimConfig(interleave_quantum=0)


def test_sim_config_builders():
    sim = SimConfig().with_refs(123)
    assert sim.refs_per_proc == 123
