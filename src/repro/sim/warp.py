"""Warp execution state.

A warp is the unit the per-SM schedulers operate on.  Its lifecycle::

    READY --issue ALU/SHARED--> WAIT_ALU --(calendar wake)--> READY
    READY --issue LD/ST------> WAIT_MEM --(all lines back)--> READY
    READY --issue BARRIER----> WAIT_BARRIER --(CTA arrives)--> READY
    READY --issue EXIT-------> DONE

``epoch`` increments every time the warp (re)enters READY; scheduler heaps
store the epoch at push time so stale entries can be skipped lazily.
"""

from __future__ import annotations

from enum import IntEnum
from typing import TYPE_CHECKING

from .isa import ColumnProgram

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .cta import CTA


class WarpState(IntEnum):
    READY = 0
    WAIT_ALU = 1
    WAIT_MEM = 2
    WAIT_BARRIER = 3
    DONE = 4


class Warp:
    __slots__ = ("cta", "idx", "program", "pc", "state", "epoch",
                 "issued", "last_issue", "scheduler", "age_key",
                 "state_since", "t_ready", "t_alu", "t_mem", "t_barrier")

    def __init__(self, cta: "CTA", idx: int, program: ColumnProgram) -> None:
        self.cta = cta
        self.idx = idx
        self.program = program
        self.pc = 0
        self.state = WarpState.READY
        self.epoch = 0
        self.issued = 0
        self.last_issue = -1
        self.scheduler = None  # set by SM.dispatch
        # Stall accounting: cycles spent in each wait state (see SM).
        self.state_since = 0
        self.t_ready = 0
        self.t_alu = 0
        self.t_mem = 0
        self.t_barrier = 0
        # Fixed at dispatch: GTO prefers the oldest CTA, then the lowest
        # warp index.  (BAWS derives its key from cta.block_seq dynamically.)
        self.age_key = (cta.seq, idx)

    def __repr__(self) -> str:
        return (f"Warp(cta={self.cta.cta_id}, idx={self.idx}, "
                f"state={self.state.name}, pc={self.pc})")

    @property
    def is_ready(self) -> bool:
        return self.state == WarpState.READY

    @property
    def done(self) -> bool:
        return self.state == WarpState.DONE


class MemRequest:
    """One in-flight global memory instruction owned by the LD/ST unit.

    ``idx`` walks the transaction list one line per cycle; ``outstanding``
    counts lines that missed in L1 and have not returned yet; ``accepted``
    flips once every transaction has been processed by the LD/ST unit.
    """

    __slots__ = ("warp", "lines", "idx", "outstanding", "accepted", "is_store")

    def __init__(self, warp: Warp, lines: tuple[int, ...], is_store: bool) -> None:
        self.warp = warp
        self.lines = lines
        self.idx = 0
        self.outstanding = 0
        self.accepted = False
        self.is_store = is_store

    @property
    def complete(self) -> bool:
        return self.accepted and (self.is_store or self.outstanding == 0)
