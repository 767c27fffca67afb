"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.core.config import SimConfig
from repro.rng import RngFactory


def pytest_addoption(parser):
    parser.addoption(
        "--update-goldens",
        action="store_true",
        default=False,
        help="rewrite the frozen golden reports instead of diffing them",
    )


@pytest.fixture(autouse=True)
def _obs_hygiene():
    """Each test starts with spans off and nothing recorded.

    Counters are process-wide and always on, so without this one test's
    events would show up in the next one's counts.  Any ``--obs PATH``
    sink a test left open is closed after it.
    """
    from repro import obs

    obs.disable()
    obs.reset()
    yield
    obs.close_sink()


@pytest.fixture
def obs_enabled():
    """Span recording on for one test (counters always are)."""
    from repro import obs

    obs.enable()
    yield obs
    obs.disable()


@pytest.fixture(autouse=True, scope="session")
def _hermetic_result_cache(tmp_path_factory):
    """Point the harness result cache at a per-session temp dir.

    Keeps the suite from reading or writing ``~/.cache/jmmw`` — CLI
    tests stay cold-start deterministic, and a stale user cache can
    never mask a regression.  Tests that exercise the cache explicitly
    override ``JMMW_CACHE_DIR`` themselves via ``monkeypatch``.
    """
    import os

    cache_dir = tmp_path_factory.mktemp("jmmw-cache")
    previous = os.environ.get("JMMW_CACHE_DIR")
    os.environ["JMMW_CACHE_DIR"] = str(cache_dir)
    yield
    if previous is None:
        os.environ.pop("JMMW_CACHE_DIR", None)
    else:
        os.environ["JMMW_CACHE_DIR"] = previous


@pytest.fixture
def tiny_sim() -> SimConfig:
    """A simulation config small enough for unit tests."""
    return SimConfig(seed=7, refs_per_proc=8_000, warmup_fraction=0.25)


@pytest.fixture
def small_sim() -> SimConfig:
    """A config large enough for coarse behavioral assertions."""
    return SimConfig(seed=7, refs_per_proc=40_000, warmup_fraction=0.5)


@pytest.fixture
def rng_factory() -> RngFactory:
    return RngFactory(seed=99)
