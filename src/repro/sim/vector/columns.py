"""Struct-of-arrays warp state for the vector core.

One :class:`WarpColumns` instance per SM holds every warp the SM has ever
dispatched, indexed by a dense *slot* id (slots are never recycled — a
completed CTA's columns stay in place, exactly like the object core keeps
its ``Warp`` objects alive until the CTA releases).

The hot columns are plain Python lists, not numpy arrays.  The cycle loop
touches *individual* warps (the one warp a scheduler picked, the one warp
a fill woke), and a single-element ``ndarray.__getitem__`` /
``__setitem__`` round-trip through a numpy scalar costs several times a
list index in CPython — measured on this workload the all-ndarray variant
was ~2.5x *slower* than the object core.  The struct-of-arrays layout is
what buys the speed (no per-warp attribute dictionaries or descriptor
lookups, int-packed scheduler keys, batched wakeups); numpy enters where
arrays genuinely win: the :meth:`snapshot` structured-array view that
analysis tooling can slice column-wise without walking objects.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .. import warp as _warp_mod
from . import ensure_numpy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cta import CTA
    from ..isa import ColumnProgram
    from ..warp import Warp

#: dtype of :meth:`WarpColumns.snapshot` — one record per slot, mirroring
#: the ``Warp`` attributes the object core exposes.
SNAPSHOT_FIELDS = (
    ("slot", "i8"),
    ("state", "i1"),
    ("pc", "i8"),
    ("state_since", "i8"),
    ("t_ready", "i8"),
    ("t_alu", "i8"),
    ("t_mem", "i8"),
    ("t_barrier", "i8"),
    ("last_issue", "i8"),
    ("cta_seq", "i8"),
    ("warp_idx", "i2"),
    ("sched", "i2"),
)


class WarpColumns:
    """Parallel per-slot columns for one SM's warps."""

    __slots__ = ("state", "pc", "since", "t_ready", "t_alu", "t_mem",
                 "t_barrier", "last_issue", "entry_key", "ops", "lat",
                 "lines", "warps", "ctas", "sched", "age", "baws_base")

    def __init__(self) -> None:
        #: WarpState as a plain int (READY=0 .. DONE=4).
        self.state: list[int] = []
        self.pc: list[int] = []
        self.since: list[int] = []
        self.t_ready: list[int] = []
        self.t_alu: list[int] = []
        self.t_mem: list[int] = []
        self.t_barrier: list[int] = []
        self.last_issue: list[int] = []
        #: Key of the slot's most recent heap push (staleness check).
        self.entry_key: list[int] = []
        #: Each slot's ``ColumnProgram`` columns, one list per column so
        #: the tick reads ``ops[slot][pc]`` without an attribute hop.
        self.ops: list[bytes] = []
        self.lat: list[tuple[int, ...]] = []
        self.lines: list[tuple[tuple[int, ...], ...]] = []
        #: The warp/CTA objects behind each slot (synced at CTA release).
        self.warps: list["Warp"] = []
        self.ctas: list["CTA"] = []
        #: Issue-slot (scheduler) index the warp is pinned to.
        self.sched: list[int] = []
        #: Packed age key ``cta.seq << IDX_BITS | warp.idx``.
        self.age: list[int] = []
        #: Precomputed BAWS key base ``block_seq << (LI+AGE) | age``.
        self.baws_base: list[int] = []

    def __len__(self) -> int:
        return len(self.state)

    def add(self, warp: "Warp", cta: "CTA", *, now: int, sched: int,
            age: int, baws_base: int, program: "ColumnProgram") -> int:
        """Register a dispatched warp; returns its slot id."""
        slot = len(self.state)
        self.state.append(0)
        self.pc.append(0)
        self.since.append(now)
        self.t_ready.append(0)
        self.t_alu.append(0)
        self.t_mem.append(0)
        self.t_barrier.append(0)
        self.last_issue.append(-1)
        self.entry_key.append(-1)
        self.ops.append(program.ops)
        self.lat.append(program.lat)
        self.lines.append(program.lines)
        self.warps.append(warp)
        self.ctas.append(cta)
        self.sched.append(sched)
        self.age.append(age)
        self.baws_base.append(baws_base)
        return slot

    def sync_warp(self, slot: int) -> "Warp":
        """Write a slot's columns back into its ``Warp`` object."""
        warp = self.warps[slot]
        warp.state = _warp_mod.WarpState(self.state[slot])
        warp.pc = self.pc[slot]
        warp.state_since = self.since[slot]
        warp.last_issue = self.last_issue[slot]
        warp.t_ready = self.t_ready[slot]
        warp.t_alu = self.t_alu[slot]
        warp.t_mem = self.t_mem[slot]
        warp.t_barrier = self.t_barrier[slot]
        return warp

    def snapshot(self):
        """The columns as a numpy structured array (one record per slot).

        Analysis-facing: lets tooling slice warp state column-wise
        (``table["t_mem"].sum()``, ready masks via ``table["state"] == 0``)
        without walking Python objects.  Never used on the hot path.
        """
        numpy = ensure_numpy()
        table = numpy.zeros(len(self.state), dtype=list(SNAPSHOT_FIELDS))
        table["slot"] = numpy.arange(len(self.state))
        table["state"] = self.state
        table["pc"] = self.pc
        table["state_since"] = self.since
        table["t_ready"] = self.t_ready
        table["t_alu"] = self.t_alu
        table["t_mem"] = self.t_mem
        table["t_barrier"] = self.t_barrier
        table["last_issue"] = self.last_issue
        table["cta_seq"] = [cta.seq for cta in self.ctas]
        table["warp_idx"] = [warp.idx for warp in self.warps]
        table["sched"] = self.sched
        return table
