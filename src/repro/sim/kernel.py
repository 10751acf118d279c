"""Kernel (grid) description and occupancy arithmetic.

A :class:`Kernel` is the static description of a launch: how many CTAs, how
many warps per CTA, the per-thread/per-CTA resource appetite, and a builder
that produces each warp's instruction trace on demand (traces are built
lazily at CTA dispatch so large grids never materialise in memory at once).
A builder returns a ``TraceBuilder().build()`` column program or a list of
:class:`~repro.sim.isa.Instruction`; :meth:`Kernel.build_warp_program`
hands every core the checked column form either way.

Occupancy — the maximum number of CTAs of this kernel resident on one SM —
is the min over four hardware limits (CTA slots, warp contexts, registers,
shared memory), exactly the quantity the paper's schedulers manipulate.
"""

from __future__ import annotations

from typing import Callable, Sequence

from .config import GPUConfig
from .isa import ColumnProgram, Instruction, program_columns

ProgramBuilder = Callable[[int, int], ColumnProgram | Sequence[Instruction]]


class KernelResourceError(ValueError):
    """Raised when a kernel cannot fit even one CTA on an SM."""


class Kernel:
    """Static description of one kernel launch."""

    __slots__ = ("name", "num_ctas", "warps_per_cta", "regs_per_thread",
                 "shmem_per_cta", "_builder", "tags")

    def __init__(self, name: str, num_ctas: int, warps_per_cta: int,
                 program_builder: ProgramBuilder, *, regs_per_thread: int = 20,
                 shmem_per_cta: int = 0, tags: tuple[str, ...] = ()) -> None:
        if num_ctas < 1:
            raise ValueError("num_ctas must be >= 1")
        if warps_per_cta < 1:
            raise ValueError("warps_per_cta must be >= 1")
        if regs_per_thread < 0 or shmem_per_cta < 0:
            raise ValueError("resource requirements must be non-negative")
        self.name = name
        self.num_ctas = num_ctas
        self.warps_per_cta = warps_per_cta
        self.regs_per_thread = regs_per_thread
        self.shmem_per_cta = shmem_per_cta
        self._builder = program_builder
        self.tags = tags

    def __repr__(self) -> str:
        return (f"Kernel({self.name!r}, ctas={self.num_ctas}, "
                f"warps_per_cta={self.warps_per_cta})")

    # ------------------------------------------------------------------ #
    def build_warp_program(self, cta_id: int, warp_idx: int) -> ColumnProgram:
        """Build and check the trace of one warp: the one build entry point
        of every core.  A builder's ``Instruction`` list is converted to
        columns here; either form gets the same structural check."""
        if not 0 <= cta_id < self.num_ctas:
            raise ValueError(f"cta_id {cta_id} out of range")
        if not 0 <= warp_idx < self.warps_per_cta:
            raise ValueError(f"warp_idx {warp_idx} out of range")
        program = self._builder(cta_id, warp_idx)
        if not isinstance(program, ColumnProgram):
            program = program_columns(program)
        program.check()
        return program

    # ------------------------------------------------------------------ #
    def regs_per_cta(self, config: GPUConfig) -> int:
        return self.regs_per_thread * self.warps_per_cta * config.warp_size

    def max_ctas_per_sm(self, config: GPUConfig) -> int:
        """Hardware occupancy limit for this kernel (the paper's 'maximum')."""
        limit = min(config.max_ctas_per_sm,
                    config.max_warps_per_sm // self.warps_per_cta)
        regs = self.regs_per_cta(config)
        if regs:
            limit = min(limit, config.registers_per_sm // regs)
        if self.shmem_per_cta:
            limit = min(limit, config.shared_mem_per_sm // self.shmem_per_cta)
        if limit < 1:
            raise KernelResourceError(
                f"kernel {self.name!r} cannot fit a single CTA on an SM")
        return limit

    def occupancy_breakdown(self, config: GPUConfig) -> dict[str, int]:
        """Per-resource CTA limits (for the configuration tables in E12)."""
        breakdown = {
            "cta_slots": config.max_ctas_per_sm,
            "warps": config.max_warps_per_sm // self.warps_per_cta,
        }
        regs = self.regs_per_cta(config)
        breakdown["registers"] = (config.registers_per_sm // regs) if regs else config.max_ctas_per_sm
        breakdown["shared_mem"] = (
            config.shared_mem_per_sm // self.shmem_per_cta
            if self.shmem_per_cta else config.max_ctas_per_sm
        )
        return breakdown
