"""Reference encoding round-trips."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.memsys.block import (
    IFETCH,
    LOAD,
    STORE,
    Ref,
    decode_ref,
    encode_ref,
    encode_refs,
    is_data_kind,
    is_write_kind,
    kind_name,
)


@given(
    addr=st.integers(min_value=0, max_value=2**40),
    kind=st.sampled_from([IFETCH, LOAD, STORE]),
)
def test_roundtrip(addr, kind):
    assert decode_ref(encode_ref(addr, kind)) == (addr, kind)


def test_invalid_kind_rejected():
    with pytest.raises(ValueError):
        encode_ref(0, 3)
    with pytest.raises(ValueError):
        encode_ref(-1, LOAD)


def test_kind_predicates():
    assert is_write_kind(STORE)
    assert not is_write_kind(LOAD)
    assert is_data_kind(LOAD)
    assert is_data_kind(STORE)
    assert not is_data_kind(IFETCH)
    assert kind_name(IFETCH) == "ifetch"


def test_ref_dataclass():
    ref = Ref(addr=0x1234, kind=STORE)
    assert ref.is_write and ref.is_data
    assert Ref.from_encoded(ref.encoded()) == ref
    assert ref.block(6) == 0x1234 >> 6


@given(
    addrs=st.lists(st.integers(min_value=0, max_value=2**40), max_size=50),
    kind=st.sampled_from([IFETCH, LOAD, STORE]),
)
def test_encode_refs_matches_encode_ref(addrs, kind):
    got = encode_refs(addrs, kind)
    assert got.tolist() == [encode_ref(a, kind) for a in addrs]


def _error(fn, *args) -> str:
    with pytest.raises(ValueError) as info:
        fn(*args)
    return str(info.value)


def test_encode_refs_raises_what_encode_ref_raises():
    # The first negative address is the one a per-reference loop hits.
    want = _error(encode_ref, -0x20, LOAD)
    assert _error(encode_refs, [0x40, -0x20, -1], LOAD) == want
    assert _error(encode_refs, np.arange(-2, 2), STORE) == _error(encode_ref, -2, STORE)
    assert _error(encode_refs, [0x40], 3) == _error(encode_ref, 0x40, 3)


def test_encode_refs_empty():
    assert encode_refs([], IFETCH).size == 0
    assert encode_refs(np.arange(0), STORE).tolist() == []
