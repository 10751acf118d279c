"""Trace builder: composes per-warp programs.

``TraceBuilder`` is a tiny fluent helper the benchmark factories use to
assemble warp programs.  It enforces the ISA's well-formedness rules (the
same checks ``Instruction`` applies) as the rows are appended, and
``build()`` returns the rows in the one form the simulator runs, a
:class:`repro.sim.isa.ColumnProgram`, without allocating an
``Instruction`` per row.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ..sim.isa import (MEMORY_OPS, ColumnProgram, Instruction, Op,
                       program_columns)


class TraceBuilder:
    """Accumulates instructions for one warp."""

    def __init__(self, *, alu_latency: int = 4, shared_latency: int = 24) -> None:
        if alu_latency < 1 or shared_latency < 1:
            raise ValueError("latencies must be >= 1")
        self._alu_latency = alu_latency
        self._shared_latency = shared_latency
        self._ops: list[Op] = []
        self._lat: list[int] = []
        self._lines: list[tuple[int, ...]] = []
        self._built = False

    # ------------------------------------------------------------------ #
    def alu(self, count: int = 1, latency: int | None = None) -> "TraceBuilder":
        latency = latency if latency is not None else self._alu_latency
        if latency < 1:
            raise ValueError("latency must be >= 1")
        self._ops.extend((Op.ALU,) * count)
        self._lat.extend((latency,) * count)
        self._lines.extend(((),) * count)
        return self

    def shared(self, count: int = 1, latency: int | None = None) -> "TraceBuilder":
        latency = latency if latency is not None else self._shared_latency
        if latency < 1:
            raise ValueError("latency must be >= 1")
        self._ops.extend((Op.SHARED,) * count)
        self._lat.extend((latency,) * count)
        self._lines.extend(((),) * count)
        return self

    def _memory(self, op: Op, lines: int | Iterable[int]) -> "TraceBuilder":
        if isinstance(lines, int):
            lines = (lines,)
        else:
            lines = tuple(lines)
        if not lines:
            raise ValueError(f"{op.name} instruction needs at least one line")
        if len(set(lines)) != len(lines):
            raise ValueError("memory instruction lines must be distinct (coalesced)")
        self._ops.append(op)
        self._lat.append(1)
        self._lines.append(lines)
        return self

    def load(self, lines: int | Iterable[int]) -> "TraceBuilder":
        return self._memory(Op.LD_GLOBAL, lines)

    def load_strided(self, base_byte: int, stride_elems: int, *,
                     lanes: int = 32, elem_size: int = 4) -> "TraceBuilder":
        """A byte-level warp access, coalesced by the hardware rules.

        Lane *i* reads ``base_byte + i * stride_elems * elem_size``; the
        coalescer collapses the 32 lanes into the minimal set of 128-byte
        transactions (1 for unit stride, up to 32 for scattered strides).
        This is the entry point for users thinking in addresses rather
        than cache lines.
        """
        from ..mem.coalescer import warp_access
        lines = warp_access(base_byte, stride_elems, lanes=lanes,
                            elem_size=elem_size)
        return self._memory(Op.LD_GLOBAL, lines)

    def load_each(self, lines: Iterable[int],
                  alu_between: int = 0) -> "TraceBuilder":
        """One single-line load per element, optionally interleaved with ALU."""
        for line in lines:
            self.load(line)
            if alu_between:
                self.alu(alu_between)
        return self

    def store(self, lines: int | Iterable[int]) -> "TraceBuilder":
        return self._memory(Op.ST_GLOBAL, lines)

    def barrier(self) -> "TraceBuilder":
        self._ops.append(Op.BARRIER)
        self._lat.append(1)
        self._lines.append(())
        return self

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._ops)

    def build(self) -> ColumnProgram:
        """Append EXIT and return the finished program.

        Well-formedness is enforced as rows are appended (the fluent API
        cannot express an interior EXIT), so the output always passes
        ``ColumnProgram.check``.
        """
        if self._built:
            raise RuntimeError("TraceBuilder.build() may only be called once")
        self._built = True
        self._ops.append(Op.EXIT)
        self._lat.append(1)
        self._lines.append(())
        return ColumnProgram(bytes(self._ops), tuple(self._lat),
                             tuple(self._lines))


def instruction_mix(program: Sequence[Instruction]) -> dict[str, int]:
    """Histogram of opcodes (used by the benchmark-characteristics table)."""
    mix: dict[str, int] = {}
    for inst in program:
        mix[inst.op.name] = mix.get(inst.op.name, 0) + 1
    return mix


def memory_intensity(program: ColumnProgram | Sequence[Instruction]) -> float:
    """Fraction of instructions that access global memory.

    Counts the ``MEMORY_OPS`` opcodes of the ``ops`` column; an
    ``Instruction`` sequence is converted to columns once first."""
    if not isinstance(program, ColumnProgram):
        program = program_columns(program)
    ops = program.ops
    if not ops:
        return 0.0
    return sum(map(ops.count, MEMORY_OPS)) / len(ops)
