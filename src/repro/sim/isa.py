"""Trace-level instruction set.

The simulator is trace-driven: each warp executes a straight-line trace,
held as one :class:`ColumnProgram` (an opcode column plus latency and line
columns, indexed by pc).  Control flow, register identities and SIMT
divergence are resolved when the trace is built (``repro.workloads``), so a
row carries only what the timing model needs:

* ``ALU``       — occupies the warp for ``latency`` cycles (dependent chain);
* ``SHARED``    — shared-memory access; like ALU but with the shared-memory
                  latency (bank conflicts are folded into ``latency`` by the
                  trace builder);
* ``LD_GLOBAL`` — global load; ``lines`` holds the post-coalescer 128-byte
                  line addresses; the warp blocks until all lines return;
* ``ST_GLOBAL`` — global store; write-through traffic, the warp resumes once
                  the LD/ST unit has accepted every transaction;
* ``BARRIER``   — CTA-wide barrier;
* ``EXIT``      — warp termination (must be the last instruction).

:class:`Instruction` is the row type: hand-written builders and trace files
use it, and a :class:`ColumnProgram` reads its rows back as ``Instruction``
objects for cold readers.  The simulator cores read the columns directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Iterable, Sequence


class Op(IntEnum):
    """Trace instruction kinds (see the module docstring for semantics)."""

    ALU = 0
    SHARED = 1
    LD_GLOBAL = 2
    ST_GLOBAL = 3
    BARRIER = 4
    EXIT = 5


#: Opcodes that access global memory (``in`` accepts an ``Op`` or its int).
MEMORY_OPS = frozenset({Op.LD_GLOBAL, Op.ST_GLOBAL})


@dataclass(frozen=True, slots=True)
class Instruction:
    """A single trace instruction.

    ``lines`` is the tuple of distinct 128-byte line addresses the access
    touches after coalescing (empty for non-memory ops).  ``latency`` is the
    dependent-issue latency for ALU/SHARED ops and ignored for memory ops
    (their timing comes from the memory hierarchy).
    """

    op: Op
    latency: int = 1
    lines: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.op in MEMORY_OPS:
            if not self.lines:
                raise ValueError(f"{self.op.name} instruction needs at least one line")
            if len(set(self.lines)) != len(self.lines):
                raise ValueError("memory instruction lines must be distinct (coalesced)")
        elif self.lines:
            raise ValueError(f"{self.op.name} instruction cannot carry line addresses")
        if self.latency < 1:
            raise ValueError("latency must be >= 1")

    @property
    def is_memory(self) -> bool:
        return self.op in MEMORY_OPS


# Convenience constructors -------------------------------------------------

def alu(latency: int = 4) -> Instruction:
    """An arithmetic instruction with the given dependent latency."""
    return Instruction(Op.ALU, latency=latency)


def shared(latency: int = 24) -> Instruction:
    """A shared-memory access (latency includes any bank-conflict penalty)."""
    return Instruction(Op.SHARED, latency=latency)


def load(lines: Iterable[int]) -> Instruction:
    """A global load touching the given coalesced line addresses."""
    return Instruction(Op.LD_GLOBAL, lines=tuple(lines))


def store(lines: Iterable[int]) -> Instruction:
    """A global store touching the given coalesced line addresses."""
    return Instruction(Op.ST_GLOBAL, lines=tuple(lines))


def barrier() -> Instruction:
    return Instruction(Op.BARRIER)


def exit_() -> Instruction:
    return Instruction(Op.EXIT)


def validate_program(program: Sequence[Instruction]) -> None:
    """Check the static well-formedness rules for a warp trace.

    A valid program is non-empty, ends with exactly one EXIT (its last
    instruction), and contains no EXIT anywhere else.
    """
    program_columns(program).check()


class ColumnProgram:
    """Column (structure-of-arrays) form of a warp trace.

    One ``bytes`` of opcode values plus parallel latency and line tuples,
    indexable by pc: the form every simulator core runs.  The hot paths
    read ``ops[pc]``, ``lat[pc]`` and ``lines[pc]``; nothing is allocated
    per instruction.

    Rows come from two producers, and both check them:
    ``repro.workloads.programs.TraceBuilder`` checks each row as it is
    appended, and :func:`program_columns` takes rows that ``Instruction``
    already checked.  ``Kernel.build_warp_program`` adds the structural
    checks (EXIT placement, equal column lengths) whatever the producer.

    Indexing, slicing and iteration give a read-only view of the rows as
    ``Instruction`` objects, for cold readers (trace export, statistics,
    tests); no hot path uses it.
    """

    __slots__ = ("ops", "lat", "lines")

    def __init__(self, ops: bytes, lat: tuple, lines: tuple) -> None:
        self.ops = ops
        self.lat = lat
        self.lines = lines

    def check(self) -> None:
        """Raise ``ValueError`` unless the columns are one valid trace:
        :func:`validate_program`'s rules, checked with ``bytes``
        operations on ``ops``, and columns of equal length."""
        ops = self.ops
        if not ops:
            raise ValueError("warp program must not be empty")
        if ops[-1] != Op.EXIT:
            raise ValueError("warp program must end with EXIT")
        if ops.index(Op.EXIT) != len(ops) - 1:
            raise ValueError("EXIT may only appear as the final instruction")
        if not len(ops) == len(self.lat) == len(self.lines):
            raise ValueError("warp program columns differ in length")

    def __len__(self) -> int:
        return len(self.ops)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(self)[index]
        return Instruction(Op(self.ops[index]), self.lat[index],
                           self.lines[index])

    def __iter__(self):
        return map(Instruction, map(Op, self.ops), self.lat, self.lines)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ColumnProgram):
            return NotImplemented
        return (self.ops == other.ops and self.lat == other.lat
                and self.lines == other.lines)

    def __repr__(self) -> str:
        return f"ColumnProgram({len(self.ops)} instructions)"


def program_columns(program: Iterable[Instruction]) -> ColumnProgram:
    """Column form of an ``Instruction`` sequence (not checked here:
    ``Kernel.build_warp_program`` checks what it returns)."""
    program = tuple(program)
    return ColumnProgram(
        bytes(inst.op for inst in program),
        tuple(inst.latency for inst in program),
        tuple(inst.lines for inst in program))
