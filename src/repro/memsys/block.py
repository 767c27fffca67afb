"""Memory-reference encoding shared by workload generators and simulators.

A reference is a single int: ``(byte_address << 2) | kind``.  Packing
into ints (rather than tuples or dataclasses) matters: traces run to
millions of references, held as ``uint64`` arrays for the compiled
coherence kernel and miss-curve sweep, and walked one
Python int at a time by the scalar reference simulators, where any
object allocation per reference would dominate runtime.

Workloads emit instruction fetches at 32-byte granularity (one fetch
per half of a 64-byte line) and data references at their natural byte
addresses.  Cache simulators derive block addresses by shifting, which
lets one generated trace be replayed against any block size >= 32 B.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Reference kinds (2-bit field).
IFETCH = 0
LOAD = 1
STORE = 2

_KIND_NAMES = {IFETCH: "ifetch", LOAD: "load", STORE: "store"}

#: Granularity at which sequential instruction fetches are emitted.
IFETCH_BYTES = 32
#: Instructions represented by one emitted instruction fetch (4-byte SPARC
#: instructions, 32-byte fetch granularity).
INSTRUCTIONS_PER_IFETCH = IFETCH_BYTES // 4


def encode_ref(addr: int, kind: int) -> int:
    """Pack a byte address and a reference kind into one int."""
    if kind not in _KIND_NAMES:
        raise ValueError(f"invalid reference kind {kind}")
    if addr < 0:
        raise ValueError(f"negative address {addr:#x}")
    return (addr << 2) | kind


def encode_refs(addrs, kind: int) -> np.ndarray:
    """Vectorized :func:`encode_ref`: one ``int64`` array for ``addrs``.

    Raises the :class:`ValueError` that :func:`encode_ref` raises for
    an invalid kind, or for the first negative address.  Addresses
    must be below ``2**61``, so the packed values fit ``int64``.
    """
    if kind not in _KIND_NAMES:
        raise ValueError(f"invalid reference kind {kind}")
    addrs = np.asarray(addrs, dtype=np.int64)
    negative = addrs[addrs < 0]
    if negative.size:
        raise ValueError(f"negative address {int(negative[0]):#x}")
    return (addrs << 2) | kind


def decode_ref(ref: int) -> tuple[int, int]:
    """Unpack an encoded reference into ``(byte_address, kind)``."""
    return ref >> 2, ref & 0x3


def is_write_kind(kind: int) -> bool:
    """True for stores."""
    return kind == STORE


def is_data_kind(kind: int) -> bool:
    """True for loads and stores, False for instruction fetches."""
    return kind != IFETCH


def kind_name(kind: int) -> str:
    """Human-readable name of a reference kind."""
    return _KIND_NAMES[kind]


@dataclass(frozen=True)
class Ref:
    """Decoded reference, for tests and debugging (not the hot path)."""

    addr: int
    kind: int

    @classmethod
    def from_encoded(cls, ref: int) -> "Ref":
        addr, kind = decode_ref(ref)
        return cls(addr, kind)

    @property
    def is_write(self) -> bool:
        return is_write_kind(self.kind)

    @property
    def is_data(self) -> bool:
        return is_data_kind(self.kind)

    def encoded(self) -> int:
        return encode_ref(self.addr, self.kind)

    def block(self, block_bits: int) -> int:
        """Block address for a cache with 2**block_bits byte lines."""
        return self.addr >> block_bits
