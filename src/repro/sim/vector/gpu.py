"""``VectorGPU`` — the vector core on the shared run loop.

:meth:`repro.sim.gpu.GPU._loop` runs both cores, and both put their ALU
completions in the GPU's one wake calendar (``{cycle: [entries]}`` plus a
min-heap of distinct cycles) instead of one ``EventQueue`` entry each.  A
vector entry is a packed ``sm_id << SLOT_BITS | slot`` int, so the vector
core only overrides :meth:`VectorGPU._drain_wakes` to decode it.  L1-hit
and store wakes go through the event queue on both cores: a DynCTA sample
due in the same cycle counts WAIT_MEM warps and must see them in FIFO
order.
"""

from __future__ import annotations

from heapq import heappop
from typing import TYPE_CHECKING, Callable

from ...core.warp_schedulers import WarpScheduler, warp_scheduler_factory
from ..config import GPUConfig
from ..gpu import GPU
from . import VECTOR_WARP_SCHEDULERS, VectorBackendError, ensure_numpy
from .core import VectorSM
from .sched import KIND_BY_NAME, MAX_LAST_ISSUE, SLOT_BITS, SLOT_MASK

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ...telemetry.hub import TelemetryHub


class VectorGPU(GPU):
    """Drop-in :class:`GPU` with the array-oriented hot path.

    Accepts only the warp schedulers the vector core reproduces bitwise
    (:data:`VECTOR_WARP_SCHEDULERS`); everything else — configs, CTA
    policies, telemetry hubs — is shared with the object core.
    """

    def __init__(self, config: GPUConfig | None = None,
                 warp_scheduler: str | Callable[[], WarpScheduler] = "gto",
                 telemetry: "TelemetryHub | None" = None) -> None:
        ensure_numpy()
        if not isinstance(warp_scheduler, str):
            raise VectorBackendError(
                "the vector backend needs a named warp scheduler "
                f"({', '.join(sorted(VECTOR_WARP_SCHEDULERS))}), not a "
                "custom factory; use backend='object'")
        if warp_scheduler not in VECTOR_WARP_SCHEDULERS:
            raise VectorBackendError(
                f"warp scheduler {warp_scheduler!r} is not supported by "
                f"the vector backend (supported: "
                f"{', '.join(sorted(VECTOR_WARP_SCHEDULERS))}); "
                "use backend='object'")
        super().__init__(config=config, warp_scheduler=warp_scheduler,
                         telemetry=telemetry)
        if self.config.max_cycles > MAX_LAST_ISSUE:
            raise VectorBackendError(
                f"max_cycles={self.config.max_cycles} exceeds the vector "
                f"backend's packed-key range ({MAX_LAST_ISSUE}); "
                "use backend='object'")
        kind = KIND_BY_NAME[warp_scheduler]
        factory = warp_scheduler_factory(warp_scheduler)
        # The probes read gpu.sms dynamically, so swapping in the vector
        # SMs after the base constructor is safe.
        self.sms = [VectorSM(self, sm_id, self.config, factory, kind)
                    for sm_id in range(self.config.num_sms)]

    # ------------------------------------------------------------------ #
    def _drain_wakes(self, cycle: int) -> None:
        """Fire every calendar wake due by ``cycle``; each entry is a
        packed ``sm_id << SLOT_BITS | slot``."""
        calheap = self._wake_heap
        cal_pop = self._wake_cal.pop
        sms = self.sms
        while calheap and calheap[0] <= cycle:
            for entry in cal_pop(heappop(calheap)):
                sms[entry >> SLOT_BITS]._wake_alu_slot(cycle,
                                                       entry & SLOT_MASK)
