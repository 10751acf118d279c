"""Top-level GPU: ties SMs, the memory system and a CTA scheduler together.

The run loop is cycle-driven with fast-forward: when no SM can make
progress, the clock jumps straight to the next pending wake-up — the head
of the event queue (memory traffic, L1-hit and store wakes, policy timers)
or of the ALU wake calendar (ALU/SHARED completions, grouped per cycle).
Results are identical to ticking every cycle: the skip condition is
exactly "no state transition can happen before that wake-up".
"""

from __future__ import annotations

from heapq import heappop
from time import monotonic as _monotonic
from typing import TYPE_CHECKING, Callable, Iterable

from ..core.warp_schedulers import WarpScheduler, warp_scheduler_factory
from ..mem.subsystem import MemorySubsystem
from .config import DEFAULT_CONFIG, GPUConfig
from .cta import CTA
from .events import EventQueue
from .kernel import Kernel
from .sm import SM
from .stats import KernelStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.cta_schedulers import CTAScheduler
    from ..telemetry.hub import TelemetryHub


class SimulationError(RuntimeError):
    """Base class for simulator failures."""


class SimulationDeadlock(SimulationError):
    """No SM can progress, no event is pending, yet work remains."""


class SimulationTimeout(SimulationError):
    """The run exceeded its budget: ``GPUConfig.max_cycles`` or the
    wall-clock deadline of ``GPU.run(..., wall_timeout=...)``.

    Carries structured partial-progress fields so callers (the batch
    engine's failure table, checkpoint-aware retries) can report how far
    the run got instead of just the message string:

    * ``cycle`` — the simulated cycle the run was interrupted at;
    * ``max_cycles`` — the configured cycle budget;
    * ``kind`` — ``"wall"`` (wall-clock deadline; resumable) or
      ``"max-cycles"`` (simulated-cycle budget; resuming cannot help);
    * ``checkpoint_cycle`` — newest durably-saved checkpoint, or None.
    """

    def __init__(self, message: str, *, cycle: int | None = None,
                 max_cycles: int | None = None, kind: str = "wall",
                 checkpoint_cycle: int | None = None) -> None:
        super().__init__(message)
        self.cycle = cycle
        self.max_cycles = max_cycles
        self.kind = kind
        self.checkpoint_cycle = checkpoint_cycle


class _RunService:
    """Coordinates the optional per-run riders of the simulation loop:
    telemetry window closing, the fault saboteur, the invariant sanitizer
    and the checkpoint recorder.  ``next_cycle`` is the earliest cycle any
    rider wants; the loop tests one local against it per iteration, so
    disabled riders cost nothing and enabled ones fire only at their
    boundaries.

    Boundaries are recomputed from the current cycle with the same
    ``(cycle // interval + 1) * interval`` formula on every call, so a
    resumed run services at exactly the cycles the uninterrupted run
    would have — and since window closing and the sanitizer only read
    state and the recorder only copies it, none of them can perturb
    results (only the saboteur mutates, by design)."""

    __slots__ = ("hub", "sanitizer", "checkpoint", "saboteur",
                 "_next_close", "_next_check", "_next_save", "next_cycle")

    def __init__(self, hub: "TelemetryHub | None", sanitizer, checkpoint,
                 saboteur, cycle: int) -> None:
        self.hub = hub
        self.sanitizer = sanitizer
        self.checkpoint = checkpoint
        self.saboteur = saboteur
        self._next_close = (self._boundary(cycle, hub.window)
                            if hub is not None else None)
        self._next_check = (self._boundary(cycle, sanitizer.interval)
                            if sanitizer is not None else None)
        self._next_save = (self._boundary(cycle, checkpoint.interval)
                           if checkpoint is not None else None)
        self.next_cycle: int | None = None
        self._recompute()

    @staticmethod
    def _boundary(cycle: int, interval: int) -> int:
        return (cycle // interval + 1) * interval

    def _recompute(self) -> None:
        pending = [at for at in (self._next_close, self._next_check,
                                 self._next_save) if at is not None]
        saboteur = self.saboteur
        if saboteur is not None and not saboteur.done:
            pending.append(saboteur.at)
        self.next_cycle = min(pending) if pending else None

    def _close_windows(self, cycle: int) -> None:
        """Sample every telemetry window whose boundary is <= ``cycle``.

        The loop services at its top, before events due at ``cycle``
        fire, so a boundary crossed inside a fast-forward jump samples
        exactly the state a cycle-accurate run would have had there —
        nothing changes between the jump origin and the next event.
        """
        boundary = self._next_close
        if boundary is None or cycle < boundary:
            return
        hub = self.hub
        while cycle >= boundary:
            hub.close_window(boundary)
            boundary += hub.window
        self._next_close = boundary

    def service(self, gpu: "GPU", cycle: int) -> int | None:
        """Fire every due rider; returns the next service cycle.

        Order matters: telemetry windows first, so every snapshot point
        has sampled all boundaries <= its cycle and a resume lands on
        exactly the next unclosed window; then the saboteur (an injected
        crash loses the checkpoint it would have gotten this boundary,
        like a real one), then the sanitizer (so injected corruption is
        caught *before* it can be checkpointed), then the recorder.
        """
        self._close_windows(cycle)
        saboteur = self.saboteur
        if saboteur is not None and not saboteur.done \
                and cycle >= saboteur.at:
            saboteur.fire(gpu, cycle)
        if self._next_check is not None and cycle >= self._next_check:
            self.sanitizer.check(gpu, cycle)
            self._next_check = self._boundary(cycle, self.sanitizer.interval)
        if self._next_save is not None and cycle >= self._next_save:
            self.checkpoint.save(gpu, cycle)
            self._next_save = self._boundary(cycle, self.checkpoint.interval)
        self._recompute()
        return self.next_cycle

    def on_timeout(self, gpu: "GPU", cycle: int) -> int | None:
        """Final cooperative-timeout checkpoint; newest saved cycle.
        Due windows close first, as at every other snapshot point."""
        self._close_windows(cycle)
        if self.checkpoint is None:
            return None
        return self.checkpoint.save(gpu, cycle)

    @property
    def checkpoint_cycle(self) -> int | None:
        if self.checkpoint is None:
            return None
        return self.checkpoint.last_saved


class KernelRun:
    """Runtime state of one launched kernel."""

    __slots__ = ("kernel", "kernel_id", "stats", "next_cta", "completed",
                 "regs_per_cta", "occupancy", "eligible")

    def __init__(self, kernel: Kernel, kernel_id: int, config: GPUConfig) -> None:
        self.kernel = kernel
        self.kernel_id = kernel_id
        self.stats = KernelStats(name=kernel.name, kernel_id=kernel_id,
                                 num_ctas=kernel.num_ctas)
        self.next_cta = 0
        self.completed = 0
        self.regs_per_cta = kernel.regs_per_cta(config)
        self.occupancy = kernel.max_ctas_per_sm(config)
        self.eligible = True

    def __repr__(self) -> str:
        return (f"KernelRun({self.kernel.name!r}, dispatched={self.next_cta}/"
                f"{self.kernel.num_ctas}, completed={self.completed})")

    @property
    def pending(self) -> bool:
        return self.next_cta < self.kernel.num_ctas

    @property
    def done(self) -> bool:
        return self.completed == self.kernel.num_ctas


class GPU:
    """One simulated device.  Create, then :meth:`run` a CTA scheduler."""

    def __init__(self, config: GPUConfig | None = None,
                 warp_scheduler: str | Callable[[], WarpScheduler] = "gto",
                 telemetry: "TelemetryHub | None" = None) -> None:
        self.config = config if config is not None else DEFAULT_CONFIG
        self.events = EventQueue()
        #: The ALU wake calendar both cores share: wake cycle -> entries
        #: in issue order (a ``Warp`` on the object core, a packed
        #: ``sm/slot`` int on the vector core), plus a min-heap of the
        #: distinct pending cycles.  Only WAIT_ALU -> READY wakes go here;
        #: no event callback can observe that change, so the loop drains
        #: the calendar before ``run_due`` at no cost to the results.
        self._wake_cal: dict[int, list] = {}
        self._wake_heap: list[int] = []
        # Telemetry is strictly opt-in: window closing is a run-loop rider
        # (one comparison per iteration only when a window is set) and the
        # per-CTA emit guards cost one attribute test per dispatch or
        # completion.
        self.telemetry = telemetry
        self.mem = MemorySubsystem(self.config, self.events)
        if isinstance(warp_scheduler, str):
            self.warp_scheduler_name = warp_scheduler
            factory = warp_scheduler_factory(warp_scheduler)
        else:
            factory = warp_scheduler
            self.warp_scheduler_name = getattr(factory, "name", "custom")
        self.sms = [SM(self, sm_id, self.config, factory)
                    for sm_id in range(self.config.num_sms)]
        self.runs: list[KernelRun] = []
        self.cycle = 0
        self.cta_scheduler: "CTAScheduler | None" = None
        self._cta_seq = 0
        self._block_seq = 0
        #: CTAs completed over all kernels; the run loop compares it with
        #: the launched total instead of evaluating ``cta_scheduler.done``.
        self._ctas_done = 0
        if telemetry is not None:
            telemetry.attach(self)

    # ------------------------------------------------------------------ #
    def launch(self, kernels: Iterable[Kernel]) -> list[KernelRun]:
        """Register kernels for execution (called by the CTA scheduler)."""
        if self.runs:
            raise SimulationError("kernels already launched on this GPU")
        self.runs = [KernelRun(kernel, kernel_id, self.config)
                     for kernel_id, kernel in enumerate(kernels)]
        if not self.runs:
            raise ValueError("at least one kernel is required")
        # Pre-register every kernel id in the per-SM residency counters so
        # the dispatch hot path can use plain increments.
        for sm in self.sms:
            for run in self.runs:
                sm.kernel_active.setdefault(run.kernel_id, 0)
        return self.runs

    def next_block_seq(self) -> int:
        seq = self._block_seq
        self._block_seq += 1
        return seq

    def dispatch(self, sm: SM, run: KernelRun, block_seq: int | None,
                 now: int) -> CTA:
        """Dispatch the kernel's next CTA onto ``sm``."""
        cta_id = run.next_cta
        run.next_cta += 1
        seq = self._cta_seq
        self._cta_seq += 1
        if block_seq is None:
            block_seq = self.next_block_seq()
        hub = self.telemetry
        if run.stats.first_dispatch_cycle is None:
            run.stats.first_dispatch_cycle = now
            if hub is not None:
                hub.emit("kernel.start", now, kernel=run.kernel.name,
                         kernel_id=run.kernel_id,
                         num_ctas=run.kernel.num_ctas)
        if hub is not None:
            hub.emit("cta.dispatch", now, kernel=run.kernel.name,
                     cta=cta_id, sm=sm.sm_id, block_seq=block_seq)
        return sm.dispatch(run, cta_id, seq, block_seq, now)

    def on_cta_complete(self, sm: SM, cta: CTA, now: int) -> None:
        run = cta.run
        run.completed += 1
        self._ctas_done += 1
        run.stats.instructions += cta.issued_instrs
        stats = run.stats
        for warp in cta.warps:
            stats.ready_wait += warp.t_ready
            stats.alu_wait += warp.t_alu
            stats.mem_wait += warp.t_mem
            stats.barrier_wait += warp.t_barrier
        if run.done:
            run.stats.finish_cycle = now
        hub = self.telemetry
        if hub is not None:
            hub.emit("cta.complete", now, kernel=run.kernel.name,
                     cta=cta.cta_id, sm=sm.sm_id,
                     issued_instrs=cta.issued_instrs)
            if run.done:
                hub.emit("kernel.done", now, kernel=run.kernel.name,
                         kernel_id=run.kernel_id)
        if self.cta_scheduler is not None:
            self.cta_scheduler.on_cta_complete(sm, cta, now)

    # ------------------------------------------------------------------ #
    def run(self, cta_scheduler: "CTAScheduler | None" = None, *,
            cycle_accurate: bool = False,
            wall_timeout: float | None = None,
            sanitizer=None, checkpoint=None, saboteur=None,
            resume_from=None) -> None:
        """Execute until every launched kernel completes.

        ``cycle_accurate=True`` disables the event fast-forward and ticks
        every single cycle.  Results are identical by construction (the
        skip condition enumerates every possible state change); the flag
        exists so the test suite can *prove* that equivalence, and as a
        debugging aid.

        ``wall_timeout`` is a cooperative wall-clock budget in seconds: a
        run that exceeds it raises a typed :class:`SimulationTimeout` from
        the loop top instead of hanging its caller (the batch engine's
        per-job ``--timeout`` rides on this).  The check never perturbs
        results — it only decides whether the run is *allowed to finish* —
        and costs one ``is not None`` test per iteration when disabled.

        ``sanitizer`` (an :class:`~repro.sim.invariants.InvariantSanitizer`)
        checks live-state conservation laws at its interval boundaries;
        ``checkpoint`` (a :class:`~repro.sim.checkpoint.CheckpointRecorder`)
        snapshots the whole machine at its own interval and once more on a
        cooperative wall-clock timeout; ``saboteur`` is the fault
        injector's mid-run hook (kill/corrupt at a chosen cycle).  They
        ride one loop-top service check (with telemetry window closing,
        below) costing a single comparison per iteration, and none is
        stored on the GPU — snapshots never capture the machinery that
        takes them.

        ``resume_from`` continues a run restored by
        :meth:`~repro.sim.checkpoint.Snapshot.restore`: ``self`` must be
        the GPU that restore() returned, ``cta_scheduler`` must be None
        (the restored scheduler is already bound), and launch/bind/
        telemetry-start are skipped — the loop picks up at the captured
        cycle as if the interruption never happened.

        Telemetry never rides the event queue (extra queue entries would
        change fast-forward jumps and the drain's final cycle): a hub's
        window closing is the first rider of the same loop-top service
        check, so a GPU without a windowed hub pays nothing for it.
        """
        deadline = (None if wall_timeout is None
                    else _monotonic() + wall_timeout)
        hub = self.telemetry
        if resume_from is not None:
            if cta_scheduler is not None:
                raise SimulationError(
                    "resume_from resumes the snapshotted scheduler; "
                    "do not pass cta_scheduler as well")
            cta_scheduler = self.cta_scheduler
            if cta_scheduler is None or self.cycle != resume_from.cycle:
                raise SimulationError(
                    "resume_from requires the GPU object returned by "
                    "Snapshot.restore() for that same snapshot")
            # No on_run_start/bind: the restored hub already holds the
            # run.start event and window position, the restored scheduler
            # is mid-flight.
        else:
            if cta_scheduler is None:
                raise SimulationError("a CTA scheduler is required "
                                      "(or resume_from= a snapshot)")
            if hub is not None:
                # Before bind(): policy on_bound hooks emit trace events
                # (lcs.monitor, cke.phase) that must follow run.start.
                hub.on_run_start(self.cycle)
            self.cta_scheduler = cta_scheduler
            cta_scheduler.bind(self)
        windowed = hub if hub is not None and hub.window is not None \
            else None
        service = None
        if windowed is not None or sanitizer is not None \
                or checkpoint is not None or saboteur is not None:
            service = _RunService(windowed, sanitizer, checkpoint, saboteur,
                                  self.cycle)
        cycle = self._loop(cta_scheduler, cycle_accurate, deadline, service)
        # All CTAs have completed; drain in-flight memory traffic (pending
        # write-throughs and late fills) so the memory-system statistics are
        # complete.  The clock advances with the drain: a kernel is not done
        # until its stores are visible.
        events = self.events
        while events:
            drain_to = events.next_time()
            events.run_due(drain_to)
            cycle = max(cycle, drain_to)
        self.cycle = cycle
        # Every CTA completed, so no warp can still be mid-instruction; a
        # leftover wake means the core and the calendar disagree.
        if self._wake_heap:
            raise SimulationError(
                "wake calendar not empty after run "
                f"(next at cycle {self._wake_heap[0]})")
        if hub is not None:
            hub.on_run_end(cycle)

    def _loop(self, cta_scheduler: "CTAScheduler", cycle_accurate: bool,
              deadline: float | None = None,
              service: "_RunService | None" = None) -> int:
        """The run loop, shared by both cores.

        Per-iteration fixed costs are paid only when due:

        * **completion counter** — :meth:`on_cta_complete` counts
          completions, so the loop compares two ints instead of evaluating
          ``cta_scheduler.done`` (a generator over every run); ``done`` is
          asserted once at loop exit;
        * **service gate** — the riders of :class:`_RunService` (window
          closing, saboteur, sanitizer, checkpoint) fire only when the
          cycle reaches their next boundary;
        * **wake gate** — the ALU wake calendar (:attr:`_wake_cal`) is
          drained by :meth:`_drain_wakes` only when its head is due;
        * **fill gate** — ``fill()`` runs only while the scheduler's
          ``_need_fill`` flag is up (the first thing ``fill`` itself checks,
          and no policy overrides ``fill``);
        * **event gate** — ``run_due`` runs only when the queue's head is
          due, read by a direct peek at its heap of bucket cycles.

        An idle iteration fast-forwards to the earlier of the event-queue
        head and the calendar head: nothing can change state before
        either.  The calendar holds only WAIT_ALU -> READY wakes, which no
        event callback can observe (DynCTA's sampler counts WAIT_MEM and
        non-DONE warps), so draining it before the events due at the same
        cycle gives the results of any other order.  L1-hit and store wakes
        (WAIT_MEM -> READY) stay on the event queue, in FIFO order with the
        events that can observe them.
        """
        events = self.events
        run_due = events.run_due
        ev_heap = events._heap
        calheap = self._wake_heap
        fill = cta_scheduler.fill
        sms = self.sms
        max_cycles = self.config.max_cycles
        cycle = self.cycle
        total_ctas = sum(run.kernel.num_ctas for run in self.runs)
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
                self._drain_wakes(cycle)
            if ev_heap and ev_heap[0] <= cycle:
                run_due(cycle)
            if cta_scheduler._need_fill:
                fill(cycle)
            active = False
            for sm in sms:
                # Mirror of SM.tick's entry guards: an SM with nothing in
                # the LD/ST unit and nothing issuable does nothing this
                # cycle, so skip the call (memory-bound phases spend most
                # cycles with every SM in this state).
                if ((sm.ldst and not sm.ldst_blocked)
                        or (sm.num_ready and not sm.gate_blocked)):
                    if sm.tick(cycle):
                        active = True
            if active:
                cycle += 1
            else:
                if ev_heap:
                    next_event = ev_heap[0]
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
        if not cta_scheduler.done:
            raise SimulationError(
                f"completion counter reached {self._ctas_done}/{total_ctas} "
                "but the CTA scheduler disagrees — counter drift")
        return cycle

    def _drain_wakes(self, cycle: int) -> None:
        """Fire every calendar wake due by ``cycle``, in issue order per
        wake cycle, through :meth:`SM._wake_alu` (the loop's wake gate
        calls this only when the calendar head is due)."""
        calheap = self._wake_heap
        cal_pop = self._wake_cal.pop
        while calheap and calheap[0] <= cycle:
            for warp in cal_pop(heappop(calheap)):
                warp.cta.sm._wake_alu(cycle, warp)

    # ------------------------------------------------------------------ #
    @property
    def total_issued(self) -> int:
        return sum(sm.issued for sm in self.sms)
