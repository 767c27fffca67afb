"""Instruction-footprint model.

A workload's instruction stream is modeled as a sequence of *bursts*:
sequential fetch runs inside hot code regions, with regions chosen by
their relative hotness.  The emergent behavior matches how real
instruction caches see middleware: a large body of warm code touched
with a skewed distribution produces the smooth miss-rate-vs-size
curves of Figure 12, and the *total* amount of hot code — much larger
for ECperf (servlet engine + EJB container + JDBC + XML + beans) than
for SPECjbb — sets where the curve falls off.

:meth:`CodeLayout.burst` is the reference for one burst's fetches.
The compiled burst step draws the same bursts from a
:class:`BurstTable`, the layout packed once, on first use
(:attr:`CodeLayout.burst_table`).
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from repro.appserver.container import CodeRegionSpec
from repro.errors import ConfigError
from repro.memsys.block import IFETCH, IFETCH_BYTES, INSTRUCTIONS_PER_IFETCH, encode_ref

#: Base of the text segment in the simulated address space.
CODE_REGION_BASE = 0x1000_0000


class CodeSegment:
    """A contiguous region of instructions at a fixed address."""

    def __init__(self, name: str, base: int, instructions: int) -> None:
        if instructions <= 0:
            raise ConfigError(f"{name}: instructions must be positive")
        if base % IFETCH_BYTES != 0:
            raise ConfigError(f"{name}: base must be {IFETCH_BYTES}-byte aligned")
        self.name = name
        self.base = base
        self.instructions = instructions
        self.code_bytes = instructions * 4

    def fetch_refs(self, start_instr: int, n_instr: int) -> list[int]:
        """Encoded fetch refs for ``n_instr`` sequential instructions.

        Fetches are emitted one per :data:`IFETCH_BYTES` (32 B) of
        straight-line code; the run wraps within the segment, modeling
        loops.
        """
        if n_instr <= 0:
            return []
        start_byte = (start_instr * 4) % self.code_bytes
        start_byte -= start_byte % IFETCH_BYTES
        refs = []
        offset = start_byte
        remaining_bytes = n_instr * 4
        while remaining_bytes > 0:
            refs.append(encode_ref(self.base + offset, IFETCH))
            offset += IFETCH_BYTES
            if offset >= self.code_bytes:
                offset = 0
            remaining_bytes -= IFETCH_BYTES
        return refs


class CodeLayout:
    """Assigns addresses to code-region specs and samples fetch bursts."""

    def __init__(
        self,
        specs: list[CodeRegionSpec],
        base: int = CODE_REGION_BASE,
        locality: float = 0.6,
        offset_skew: float = 2.0,
    ) -> None:
        """``locality`` and ``offset_skew`` set this code base's character.

        A compact benchmark like SPECjbb runs tight loops (high
        locality, strong entry-point skew); a layered server like
        ECperf spreads execution across its stack (lower locality,
        flatter entries), which is what separates the two instruction
        miss curves in Figure 12.
        """
        if not specs:
            raise ConfigError("code layout needs at least one region")
        if not 0.0 <= locality < 1.0:
            raise ConfigError("locality must be in [0, 1)")
        if offset_skew <= 0:
            raise ConfigError("offset_skew must be positive")
        self.locality = locality
        self.offset_skew = offset_skew
        self.segments: list[CodeSegment] = []
        addr = base
        for spec in specs:
            segment = CodeSegment(spec.name, addr, spec.instructions)
            self.segments.append(segment)
            # Pad regions apart so distinct regions never share a line.
            addr += (segment.code_bytes + 255) // 256 * 256
        weights = np.array([s.hotness for s in specs], dtype=float)
        self._cumulative = np.cumsum(weights / weights.sum())
        self.total_code_bytes = sum(s.code_bytes for s in self.segments)

    def pick_segment(self, rng: np.random.Generator) -> CodeSegment:
        """Sample a segment proportionally to its hotness."""
        u = float(rng.random())
        index = int(np.searchsorted(self._cumulative, u, side="right"))
        return self.segments[min(index, len(self.segments) - 1)]

    def burst(
        self,
        rng: np.random.Generator,
        mean_burst_instr: int = 100,
        prev: tuple[CodeSegment, int] | None = None,
        locality: float | None = None,
        offset_skew: float | None = None,
    ) -> tuple[list[int], int, tuple[CodeSegment, int]]:
        """One fetch burst: ``(refs, instruction_count, continuation)``.

        Three locality mechanisms shape the stream the way real
        middleware code behaves:

        - *segment stickiness*: with probability ``locality`` the
          burst continues in the caller's segment near the previous
          position (a call returning, the next basic block);
        - *entry-point skew*: fresh segments are entered near their
          front with ``u ** offset_skew`` bias (hot entry paths, cold
          error tails);
        - *loop windows*: the burst's instructions execute as
          iterations over a small window (2-8 fetch lines), giving
          the temporal reuse loops provide.

        Callers thread the returned continuation back in as ``prev``.
        """
        if locality is None:
            locality = self.locality
        if offset_skew is None:
            offset_skew = self.offset_skew
        if prev is not None and float(rng.random()) < locality:
            segment, last_pos = prev
            if float(rng.random()) < 0.45:
                # Re-enter the loop just executed (hot inner loops are
                # re-entered many times per transaction).
                start = last_pos
            else:
                start = (last_pos + int(rng.integers(0, 64))) % segment.instructions
        else:
            segment = self.pick_segment(rng)
            u = float(rng.random()) ** offset_skew
            start = int(u * segment.instructions)
        n_instr = max(16, int(rng.exponential(mean_burst_instr)))
        # Loop window: 2-8 fetch lines revisited until the burst retires;
        # a partial last iteration fetches the lines it reaches.
        window_instr = int(rng.integers(2, 9)) * INSTRUCTIONS_PER_IFETCH
        window = segment.fetch_refs(start, window_instr)
        loops, tail = divmod(n_instr, window_instr)
        refs = window * loops + window[: -(-tail // INSTRUCTIONS_PER_IFETCH)]
        end_pos = (start + n_instr) % segment.instructions
        return refs, n_instr, (segment, end_pos)

    @cached_property
    def burst_table(self) -> "BurstTable | None":
        """This layout packed for the compiled burst step, on first use.

        None when a segment lies beyond
        :data:`~repro.memsys.fastpath_coherence.BURST_ADDRESS_LIMIT`:
        then every burst of this layout runs :meth:`burst`.
        """
        from repro.memsys.fastpath_coherence import BURST_ADDRESS_LIMIT as LIMIT

        if all(-LIMIT < s.base and s.base + s.code_bytes < LIMIT for s in self.segments):
            return BurstTable(self)
        return None

    def describe(self) -> str:
        kb_total = self.total_code_bytes / 1024
        return f"{len(self.segments)} code regions, {kb_total:.0f} KB hot code"


class BurstTable:
    """A :class:`CodeLayout` as the compiled burst step reads it.

    One ``int64`` array at :attr:`address`: the segment count,
    ``locality`` and ``offset_skew`` (float64 bits), each segment's base
    and instruction count, then the hotness CDF (float64).  ``index``
    maps each segment to its position, so a continuation
    ``(segment, position)`` crosses into the kernel as two ints.
    """

    __slots__ = ("_array", "address", "index")

    def __init__(self, layout: CodeLayout) -> None:
        n = len(layout.segments)
        self._array = np.zeros(3 + 3 * n, dtype=np.int64)
        self._array[0] = n
        self._array[1:3].view(np.float64)[:] = (layout.locality, layout.offset_skew)
        self._array[3 : 3 + 2 * n] = [
            v for s in layout.segments for v in (s.base, s.instructions)
        ]
        self._array[3 + 2 * n :].view(np.float64)[:] = layout._cumulative
        self.address = self._array.ctypes.data
        self.index = {segment: i for i, segment in enumerate(layout.segments)}


def jvm_runtime_regions() -> list[CodeRegionSpec]:
    """HotSpot runtime code both workloads execute.

    JIT-compiled method bodies dominate the fetch stream, but the
    runtime's allocation fast path, synchronization, and write-barrier
    code are hot in every Java workload.
    """
    return [
        CodeRegionSpec("jvm.alloc_fastpath", instructions=3_000, hotness=12.0),
        CodeRegionSpec("jvm.write_barrier", instructions=1_500, hotness=10.0),
        CodeRegionSpec("jvm.monitor_enter", instructions=4_000, hotness=8.0),
        CodeRegionSpec("jvm.interpreter", instructions=7_000, hotness=3.0),
        CodeRegionSpec("jvm.jit_stubs", instructions=4_000, hotness=4.0),
        CodeRegionSpec("jvm.class_runtime", instructions=5_000, hotness=2.0),
    ]
