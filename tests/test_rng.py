"""Deterministic named RNG streams."""

import numpy as np
import pytest

from repro.rng import RngFactory


def test_same_name_same_stream():
    factory = RngFactory(seed=1)
    a = factory.stream("x").random(5)
    b = factory.stream("x").random(5)
    assert list(a) == list(b)


def test_different_names_differ():
    factory = RngFactory(seed=1)
    a = factory.stream("x").random(5)
    b = factory.stream("y").random(5)
    assert list(a) != list(b)


def test_run_index_perturbs_all_streams():
    base = RngFactory(seed=1)
    other = base.perturbed(run_index=1)
    assert list(base.stream("x").random(3)) != list(other.stream("x").random(3))


def test_seed_separates_factories():
    assert list(RngFactory(1).stream("x").random(3)) != list(
        RngFactory(2).stream("x").random(3)
    )


#: ``(lo, hi)`` bounds of the runs trace generation draws in one sized
#: call: ``StreamBuilder.code_burst``'s stack-slot offsets.
BATCHED_BOUNDS = [(0, 64)]


@pytest.mark.parametrize("lo, hi", BATCHED_BOUNDS)
@pytest.mark.parametrize("lead", ["random", "integers"])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 64, 1001])
def test_sized_integers_equal_scalar_draws(lo, hi, lead, n):
    """One ``integers(lo, hi, size=n)`` call is n scalar calls.

    Same values, and the generator ends in the same state, including
    the buffered 32-bit half that odd runs of bounded draws leave.
    The lead draw is what precedes a code burst's run: a float, or the
    burst's own bounded loop-window draw, whose buffered half the run
    may consume.  Batched generation is bit-identical to per-reference
    generation only while this holds.
    """
    factory = RngFactory(seed=11)
    scalar, sized = factory.stream("batched"), factory.stream("batched")
    for rng in (scalar, sized):
        if lead == "random":
            rng.random()
        else:
            rng.integers(2, 9)
    one_by_one = [int(scalar.integers(lo, hi)) for _ in range(n)]
    batch = sized.integers(lo, hi, size=n).tolist()
    why = (
        f"numpy {np.__version__}: integers({lo}, {hi}, size={n}) no longer "
        f"matches {n} scalar draws; batched trace generation would drift"
    )
    assert batch == one_by_one, why
    assert sized.bit_generator.state == scalar.bit_generator.state, why
    assert sized.random() == scalar.random(), why
    assert sized.bit_generator.state == scalar.bit_generator.state, why
