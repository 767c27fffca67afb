"""Content-addressed result cache: keys, storage, invalidation, durability."""

import multiprocessing
import pickle

import pytest

from repro.core.config import SimConfig
from repro.harness import ResultCache, code_version, content_key, default_cache_dir
from repro.harness.cache import QUARANTINE_DIR
from repro.harness.chaos import CORRUPTION_MODES, corrupt_cache_entry
from repro.harness.tasks import figure_cache_key, figures_campaign_signature


def test_content_key_is_stable_and_order_insensitive():
    assert content_key(a=1, b="x") == content_key(b="x", a=1)


def test_content_key_distinguishes_fields():
    base = content_key(workload="specjbb", run_index=0)
    assert content_key(workload="specjbb", run_index=1) != base
    assert content_key(workload="ecperf", run_index=0) != base


def test_content_key_covers_sim_config_fields():
    sim = SimConfig(seed=1, refs_per_proc=1000)
    assert content_key(sim=sim) == content_key(sim=SimConfig(seed=1, refs_per_proc=1000))
    assert content_key(sim=sim) != content_key(sim=sim.with_refs(2000))
    assert content_key(sim=sim) != content_key(sim=SimConfig(seed=2, refs_per_proc=1000))


def test_figure_cache_key_varies_by_module_and_sim():
    sim = SimConfig()
    assert figure_cache_key("fig04_scaling", sim) != figure_cache_key(
        "fig06_cpi", sim
    )
    assert figure_cache_key("fig04_scaling", sim) != figure_cache_key(
        "fig04_scaling", sim.with_refs(999)
    )


def _campaign_signature():
    from repro.campaign import CampaignSpec
    from repro.campaign.studies import smoke_cell
    from repro.campaign.table import Axis, RunTable

    table = RunTable(name="s", axes=(Axis("a", (1, 2)),), reps=1)
    return CampaignSpec(name="s", table=table, fn=smoke_cell).signature()


def _characterize_spec():
    from repro.campaign.studies import characterize_spec

    return characterize_spec("specjbb", 2, 2, SimConfig())


def _characterize_replica_key():
    """A ``characterize --runs`` replica's key: its ``CampaignSpec.cell_key``."""
    spec = _characterize_spec()
    return spec.cell_key(spec.table.cells()[0])


def _loadplane_point_key():
    """A ``jmmw loadplane`` sweep point's result key."""
    from repro.loadplane import LoadPlaneConfig
    from repro.loadplane.sweep import _point_key

    return _point_key(LoadPlaneConfig(n_users=100))


#: Every result key and campaign signature, at one fixed input.
KEYS = {
    "figure": lambda: figure_cache_key("fig04_scaling", SimConfig()),
    "characterize-replica": _characterize_replica_key,
    "figures-campaign": lambda: figures_campaign_signature(
        ["fig04_scaling"], SimConfig()
    ),
    "characterize-campaign": lambda: _characterize_spec().signature(),
    "campaign": _campaign_signature,
    "loadplane-point": _loadplane_point_key,
}


@pytest.mark.parametrize("switch", ["JMMW_FASTPATH", "JMMW_CHECK"])
@pytest.mark.parametrize("key", KEYS.values(), ids=KEYS.keys())
def test_every_key_records_both_run_switches(key, switch, monkeypatch):
    """A scalar-reference or checked run is never served a result
    computed with the switch the other way."""
    monkeypatch.setenv("JMMW_FASTPATH", "1")
    monkeypatch.setenv("JMMW_CHECK", "0")
    before = key()
    monkeypatch.setenv(switch, "0" if switch == "JMMW_FASTPATH" else "1")
    assert key() != before


def test_code_version_is_memoized_hex():
    v = code_version()
    assert v == code_version()
    assert len(v) == 64 and int(v, 16) >= 0


def test_round_trip_and_contains(tmp_path):
    cache = ResultCache(tmp_path)
    key = content_key(x=1)
    assert cache.get(key) == (False, None)
    cache.put(key, {"rows": [(1, 2.0)]})
    assert key in cache
    hit, value = cache.get(key)
    assert hit and value == {"rows": [(1, 2.0)]}
    assert len(cache) == 1


def test_cached_none_is_a_hit(tmp_path):
    cache = ResultCache(tmp_path)
    key = content_key(x="none")
    cache.put(key, None)
    assert cache.get(key) == (True, None)


def test_corrupt_entry_is_a_miss_and_removed(tmp_path):
    cache = ResultCache(tmp_path)
    key = content_key(x=2)
    cache.put(key, 42)
    path = cache._path(key)
    path.write_bytes(b"not a pickle")
    assert cache.get(key) == (False, None)
    assert not path.exists()


@pytest.mark.parametrize("mode", CORRUPTION_MODES)
def test_every_corruption_mode_quarantines(tmp_path, mode):
    cache = ResultCache(tmp_path)
    key = content_key(mode=mode)
    cache.put(key, {"answer": 42})
    damaged = corrupt_cache_entry(cache, key, mode)
    assert cache.get(key) == (False, None)
    assert cache.quarantined == 1
    # The evidence is preserved aside, not destroyed.
    assert not damaged.exists()
    assert (tmp_path / QUARANTINE_DIR / damaged.name).exists()
    # Quarantined entries don't count as live, and a re-put heals the key.
    assert len(cache) == 0
    cache.put(key, {"answer": 43})
    assert cache.get(key) == (True, {"answer": 43})


def test_checksum_catches_single_flipped_bit(tmp_path):
    cache = ResultCache(tmp_path)
    key = content_key(x="bitrot")
    cache.put(key, list(range(100)))
    path = cache._path(key)
    data = bytearray(path.read_bytes())
    data[-1] ^= 0x01  # one bit, last byte of the payload
    path.write_bytes(bytes(data))
    assert cache.get(key) == (False, None)
    assert cache.quarantined == 1


def test_stale_pre_checksum_entry_dropped_silently(tmp_path):
    """An old-layout entry (plain pickle dict) is stale, not corrupt."""
    cache = ResultCache(tmp_path)
    key = content_key(x="old")
    path = cache._path(key)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(pickle.dumps({"format": 1, "key": key, "value": 5}))
    assert cache.get(key) == (False, None)
    assert cache.quarantined == 0
    assert not path.exists()
    assert not (tmp_path / QUARANTINE_DIR).exists()


def test_put_leaves_no_temp_droppings(tmp_path):
    cache = ResultCache(tmp_path)
    cache.put(content_key(x=3), "value")
    assert not list(tmp_path.rglob("*.tmp"))


def test_clear(tmp_path):
    cache = ResultCache(tmp_path)
    for i in range(3):
        cache.put(content_key(x=i), i)
    assert len(cache) == 3
    cache.clear()
    assert len(cache) == 0


def _stress_writer(root: str, worker: int, iterations: int, out) -> None:
    """Hammer one shared cache with interleaved put/get/clear."""
    try:
        cache = ResultCache(root)
        for i in range(iterations):
            key = content_key(stress=i % 8)
            cache.put(key, {"worker": worker, "i": i, "pad": "x" * 256})
            hit, value = cache.get(key)
            # A concurrent clear may turn any get into a miss; a hit
            # must always be a complete, well-formed entry.
            if hit:
                assert set(value) == {"worker", "i", "pad"}
                assert len(value["pad"]) == 256
            if worker == 0 and i % 16 == 7:
                cache.clear()
        out.put(("ok", worker, cache.quarantined))
    except BaseException as exc:  # pragma: no cover - failure reporting
        out.put(("error", worker, repr(exc)))


def test_two_process_stress_never_corrupts(tmp_path):
    """Two processes sharing a root: no torn reads, no quarantines.

    Atomic renames mean a reader sees complete entries or nothing;
    clear racing put must never expose a half-entry as a hit.
    """
    ctx = multiprocessing.get_context()
    out = ctx.Queue()
    procs = [
        ctx.Process(target=_stress_writer, args=(str(tmp_path), w, 200, out))
        for w in range(2)
    ]
    for p in procs:
        p.start()
    results = [out.get(timeout=60) for _ in procs]
    for p in procs:
        p.join(timeout=60)
    assert all(status == "ok" for status, _, _ in results), results
    # Concurrency alone must never manufacture corrupt entries.
    assert all(quarantined == 0 for _, _, quarantined in results), results
    assert not (tmp_path / QUARANTINE_DIR).exists()


def test_default_cache_dir_env_override(monkeypatch, tmp_path):
    monkeypatch.setenv("JMMW_CACHE_DIR", str(tmp_path / "override"))
    assert default_cache_dir() == tmp_path / "override"
    monkeypatch.delenv("JMMW_CACHE_DIR")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    assert default_cache_dir() == tmp_path / "xdg" / "jmmw"
