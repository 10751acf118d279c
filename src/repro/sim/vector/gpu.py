"""``VectorGPU`` — the run loop over the vector core.

Semantically identical to :meth:`repro.sim.gpu.GPU._loop`, with the
same completion counter, fill gate and event gate, plus one step of its
own:

* **inline wake drain** — the batched ALU/L1-hit wake calendar is drained
  at the loop top (before ``run_due``), and the fast-forward jump targets
  the earlier of the next event-queue entry and the next calendar cycle.

Both orderings of calendar-vs-event processing at the same cycle are
equivalent (wakes and memory events touch disjoint warps and only ever
move them *into* READY), and the jump rule preserves the fast-forward
invariant: nothing can change state strictly before the earliest pending
wake or event.
"""

from __future__ import annotations

from heapq import heappop
from time import monotonic as _monotonic
from typing import TYPE_CHECKING, Callable

from ...core.warp_schedulers import WarpScheduler, warp_scheduler_factory
from ..config import GPUConfig
from ..gpu import GPU, SimulationDeadlock, SimulationError, SimulationTimeout
from . import VECTOR_WARP_SCHEDULERS, VectorBackendError, ensure_numpy
from .core import VectorSM
from .sched import KIND_BY_NAME, MAX_LAST_ISSUE, SLOT_BITS, SLOT_MASK

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ...core.cta_schedulers import CTAScheduler
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

    def _loop(self, cta_scheduler: "CTAScheduler", cycle_accurate: bool,
              deadline: float | None = None, service=None) -> int:
        events = self.events
        run_due = events.run_due
        ev_heap = events._heap
        fill = cta_scheduler.fill
        sms = self.sms
        cal_pop = self._wake_cal.pop
        calheap = self._wake_heap
        max_cycles = self.config.max_cycles
        cycle = self.cycle
        total_ctas = self._total_ctas()
        service_at = service.next_cycle if service is not None else None
        while self._ctas_done < total_ctas:
            if deadline is not None and _monotonic() >= deadline:
                self.cycle = cycle
                saved = (service.on_timeout(self, cycle)
                         if service is not None else None)
                raise SimulationTimeout(
                    f"wall-clock timeout at cycle {cycle}; "
                    f"runs={self.runs!r}",
                    cycle=cycle, max_cycles=max_cycles, kind="wall",
                    checkpoint_cycle=saved)
            if service_at is not None and cycle >= service_at:
                self.cycle = cycle
                service_at = service.service(self, cycle)
            if calheap and calheap[0] <= cycle:
                while calheap and calheap[0] <= cycle:
                    for entry in cal_pop(heappop(calheap)):
                        sm = sms[entry >> _WAKE_SM_SHIFT]
                        if entry & 1:
                            sm._wake_mem_slot(cycle,
                                              (entry >> 1) & SLOT_MASK)
                        else:
                            sm._wake_alu_slot(cycle,
                                              (entry >> 1) & SLOT_MASK)
            if ev_heap and ev_heap[0][0] <= cycle:
                run_due(cycle)
            if cta_scheduler._need_fill:
                fill(cycle)
            active = False
            for sm in sms:
                if ((sm.ldst and not sm.ldst_blocked)
                        or (sm.num_ready and not sm.gate_blocked)):
                    if sm.tick(cycle):
                        active = True
            if active:
                cycle += 1
            else:
                if ev_heap:
                    next_event = ev_heap[0][0]
                    if calheap and calheap[0] < next_event:
                        next_event = calheap[0]
                elif calheap:
                    next_event = calheap[0]
                else:
                    self.cycle = cycle
                    raise SimulationDeadlock(
                        f"cycle {cycle}: no progress possible; "
                        f"runs={self.runs!r}")
                if cycle_accurate:
                    cycle += 1
                else:
                    cycle = max(cycle + 1, next_event)
            if cycle > max_cycles:
                self.cycle = cycle
                raise SimulationTimeout(
                    f"exceeded max_cycles={max_cycles}; runs={self.runs!r}",
                    cycle=cycle, max_cycles=max_cycles, kind="max-cycles",
                    checkpoint_cycle=(service.checkpoint_cycle
                                      if service is not None else None))
        self._check_done(cta_scheduler, total_ctas)
        return cycle

    def _loop_windowed(self, cta_scheduler: "CTAScheduler",
                       cycle_accurate: bool, hub: "TelemetryHub",
                       deadline: float | None = None, service=None) -> int:
        events = self.events
        run_due = events.run_due
        ev_heap = events._heap
        fill = cta_scheduler.fill
        sms = self.sms
        cal_pop = self._wake_cal.pop
        calheap = self._wake_heap
        max_cycles = self.config.max_cycles
        cycle = self.cycle
        window = hub.window
        boundary = (cycle // window + 1) * window
        total_ctas = self._total_ctas()
        service_at = service.next_cycle if service is not None else None
        while self._ctas_done < total_ctas:
            while cycle >= boundary:
                hub.close_window(boundary)
                boundary += window
            if deadline is not None and _monotonic() >= deadline:
                self.cycle = cycle
                saved = (service.on_timeout(self, cycle)
                         if service is not None else None)
                raise SimulationTimeout(
                    f"wall-clock timeout at cycle {cycle}; "
                    f"runs={self.runs!r}",
                    cycle=cycle, max_cycles=max_cycles, kind="wall",
                    checkpoint_cycle=saved)
            if service_at is not None and cycle >= service_at:
                self.cycle = cycle
                service_at = service.service(self, cycle)
            if calheap and calheap[0] <= cycle:
                while calheap and calheap[0] <= cycle:
                    for entry in cal_pop(heappop(calheap)):
                        sm = sms[entry >> _WAKE_SM_SHIFT]
                        if entry & 1:
                            sm._wake_mem_slot(cycle,
                                              (entry >> 1) & SLOT_MASK)
                        else:
                            sm._wake_alu_slot(cycle,
                                              (entry >> 1) & SLOT_MASK)
            if ev_heap and ev_heap[0][0] <= cycle:
                run_due(cycle)
            if cta_scheduler._need_fill:
                fill(cycle)
            active = False
            for sm in sms:
                if ((sm.ldst and not sm.ldst_blocked)
                        or (sm.num_ready and not sm.gate_blocked)):
                    if sm.tick(cycle):
                        active = True
            if active:
                cycle += 1
            else:
                if ev_heap:
                    next_event = ev_heap[0][0]
                    if calheap and calheap[0] < next_event:
                        next_event = calheap[0]
                elif calheap:
                    next_event = calheap[0]
                else:
                    self.cycle = cycle
                    raise SimulationDeadlock(
                        f"cycle {cycle}: no progress possible; "
                        f"runs={self.runs!r}")
                if cycle_accurate:
                    cycle += 1
                else:
                    cycle = max(cycle + 1, next_event)
            if cycle > max_cycles:
                self.cycle = cycle
                raise SimulationTimeout(
                    f"exceeded max_cycles={max_cycles}; runs={self.runs!r}",
                    cycle=cycle, max_cycles=max_cycles, kind="max-cycles",
                    checkpoint_cycle=(service.checkpoint_cycle
                                      if service is not None else None))
        self._check_done(cta_scheduler, total_ctas)
        return cycle
