"""``VectorGPU`` — the vector core on the shared run loop.

:meth:`repro.sim.gpu.GPU._loop` runs both cores.  The vector core adds a
batched wake calendar: ALU completions and L1-hit load wakeups are grouped
per wake cycle in ``{cycle: [packed (sm, slot, kind)]}`` instead of one
``EventQueue`` entry each.  The shared loop drains it behind one gate
(:meth:`VectorGPU._drain_wakes`, before ``run_due``) and fast-forwards to
the earlier of the event-queue head and the calendar head.

Both orderings of calendar-vs-event processing at the same cycle are
equivalent (wakes and memory events touch disjoint warps and only ever
move them *into* READY), and the jump rule preserves the fast-forward
invariant: nothing can change state strictly before the earliest pending
wake or event.
"""

from __future__ import annotations

from heapq import heappop
from typing import TYPE_CHECKING, Callable

from ...core.warp_schedulers import WarpScheduler, warp_scheduler_factory
from ..config import GPUConfig
from ..gpu import GPU, SimulationError
from . import VECTOR_WARP_SCHEDULERS, VectorBackendError, ensure_numpy
from .core import VectorSM
from .sched import KIND_BY_NAME, MAX_LAST_ISSUE, SLOT_BITS, SLOT_MASK

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ...telemetry.hub import TelemetryHub

_WAKE_SM_SHIFT = SLOT_BITS + 1


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
        #: Batched wake calendar: cycle -> [packed (sm, slot, kind)].
        self._wake_cal: dict[int, list[int]] = {}
        self._wake_heap: list[int] = []
        kind = KIND_BY_NAME[warp_scheduler]
        factory = warp_scheduler_factory(warp_scheduler)
        # The probes read gpu.sms dynamically, so swapping in the vector
        # SMs after the base constructor is safe.
        self.sms = [VectorSM(self, sm_id, self.config, factory, kind,
                             self._wake_cal, self._wake_heap)
                    for sm_id in range(self.config.num_sms)]

    # ------------------------------------------------------------------ #
    def run(self, *args, **kwargs) -> None:
        super().run(*args, **kwargs)
        # Every CTA completed and the event queue drained; a leftover wake
        # would mean a warp is still mid-instruction — impossible unless
        # the core and calendar disagree.  Cheap self-check, loud failure.
        if self._wake_heap:
            raise SimulationError(
                "vector backend: wake calendar not empty after run "
                f"(next at cycle {self._wake_heap[0]})")

    def _drain_wakes(self, cycle: int) -> None:
        """Fire every calendar wake due by ``cycle`` (the loop's wake gate
        calls this only when the calendar head is due)."""
        calheap = self._wake_heap
        cal_pop = self._wake_cal.pop
        sms = self.sms
        while calheap and calheap[0] <= cycle:
            for entry in cal_pop(heappop(calheap)):
                sm = sms[entry >> _WAKE_SM_SHIFT]
                if entry & 1:
                    sm._wake_mem_slot(cycle, (entry >> 1) & SLOT_MASK)
                else:
                    sm._wake_alu_slot(cycle, (entry >> 1) & SLOT_MASK)
