"""The SIMT core (SM) model.

Per cycle an SM does two things:

1. **LD/ST unit tick** — processes one memory transaction from the head of
   its in-order (FIFO) LD/ST queue: L1 hit, MSHR allocate + forward, MSHR
   merge, or stall on MSHR exhaustion (which blocks the unit until a fill
   arrives — the backpressure that makes high occupancy hurt memory-bound
   kernels).

2. **Issue** — each of its ``issue_width`` warp schedulers picks one READY
   warp *that can structurally issue* and issues its next instruction.  A
   memory instruction needs a free LD/ST queue slot; when the queue is
   full, the scheduler skips that warp and tries the next per its priority
   order.  Under a greedy-then-oldest policy this is what hands the scarce
   LD/ST slots to the oldest CTAs first, starving younger CTAs' memory
   instructions when the memory pipe saturates — the signal LCS reads
   (see ``repro.core.lcs``).

Resource accounting (CTA slots, warp contexts, registers, shared memory)
lives here; the CTA scheduler asks :meth:`can_accept` before dispatching.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from typing import TYPE_CHECKING, Callable

from ..mem.cache import Access, Cache
from .config import GPUConfig
from .cta import CTA
from .isa import Op
from .warp import MemRequest, Warp, WarpState

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .gpu import GPU, KernelRun


class _PrefetchSentinel:
    """The MSHR-waiter marker for prefetch requests.

    Checked with ``is`` throughout the memory path, so it must survive
    pickling (checkpoint snapshots) as the *same* object: ``__reduce__``
    resolves back to the module-level singleton instead of creating a new
    instance in the restoring process.
    """

    __slots__ = ()

    def __repr__(self) -> str:
        return "<PREFETCH>"

    def __reduce__(self):
        return (_prefetch_sentinel, ())


def _prefetch_sentinel() -> "_PrefetchSentinel":
    return PREFETCH


PREFETCH = _PrefetchSentinel()

_LD_GLOBAL = int(Op.LD_GLOBAL)
_ST_GLOBAL = int(Op.ST_GLOBAL)


class SM:
    __slots__ = ("gpu", "sm_id", "config", "l1", "schedulers", "ldst",
                 "ldst_blocked", "gate_blocked", "num_ready", "issued",
                 "active_ctas", "used_slots", "used_warps", "used_regs",
                 "used_shmem", "kernel_active", "_sched_rr", "completed_ctas",
                 "_store_window", "_store_window_set", "_mem", "_events",
                 "_cal", "_calheap", "_ldst_depth", "_store_coalescing",
                 "_prefetch_next", "_l1_hit_latency")

    #: Sentinel registered as the MSHR waiter of a prefetch request; fills
    #: install the line but wake nobody.  A module-level singleton (not a
    #: bare ``object()``) so identity survives checkpoint snapshots.
    PREFETCH = PREFETCH

    def __init__(self, gpu: "GPU", sm_id: int, config: GPUConfig,
                 scheduler_factory: Callable[[], "object"]) -> None:
        self.gpu = gpu
        self.sm_id = sm_id
        self.config = config
        self.l1 = Cache(
            f"L1[{sm_id}]",
            num_sets=config.l1_num_sets,
            assoc=config.l1_assoc,
            mshr_entries=config.l1_mshr_entries,
            mshr_max_merge=config.l1_mshr_max_merge,
        )
        self.schedulers = [scheduler_factory() for _ in range(config.issue_width)]
        self.ldst: deque[MemRequest] = deque()
        self.ldst_blocked = False
        # True when every ready warp is structurally blocked (LD/ST queue
        # full); nothing can issue until the queue drains or a warp wakes.
        self.gate_blocked = False
        self.num_ready = 0
        self.issued = 0
        self.active_ctas: list[CTA] = []
        self.used_slots = 0
        self.used_warps = 0
        self.used_regs = 0
        self.used_shmem = 0
        # kernel_id -> number of resident CTAs of that kernel
        self.kernel_active: dict[int, int] = {}
        self._sched_rr = 0
        self.completed_ctas = 0
        # Write-combining window (recently accepted store lines).
        self._store_window: deque[int] = deque(
            maxlen=config.store_coalesce_window)
        self._store_window_set: set[int] = set()
        # Hot-path shortcuts: these are read every cycle (or every memory
        # transaction), so resolve the gpu.*/config.* indirections once.
        self._mem = gpu.mem
        self._events = gpu.events
        self._cal = gpu._wake_cal
        self._calheap = gpu._wake_heap
        self._ldst_depth = config.ldst_queue_depth
        self._store_coalescing = config.store_coalescing
        self._prefetch_next = config.l1_prefetch_next_line
        self._l1_hit_latency = config.l1_hit_latency

    def __repr__(self) -> str:
        return f"SM({self.sm_id}, ctas={self.used_slots}, warps={self.used_warps})"

    # ------------------------------------------------------------------ #
    # Resource accounting / dispatch
    def can_accept(self, run: "KernelRun") -> bool:
        """True if one more CTA of this kernel fits (hardware limits only)."""
        kernel = run.kernel
        config = self.config
        return (
            self.used_slots < config.max_ctas_per_sm
            and self.used_warps + kernel.warps_per_cta <= config.max_warps_per_sm
            and self.used_regs + run.regs_per_cta <= config.registers_per_sm
            and self.used_shmem + kernel.shmem_per_cta <= config.shared_mem_per_sm
        )

    def free_cta_capacity(self, run: "KernelRun") -> int:
        """How many more CTAs of this kernel the SM could host right now."""
        kernel = run.kernel
        config = self.config
        limit = config.max_ctas_per_sm - self.used_slots
        limit = min(limit, (config.max_warps_per_sm - self.used_warps)
                    // kernel.warps_per_cta)
        if run.regs_per_cta:
            limit = min(limit, (config.registers_per_sm - self.used_regs)
                        // run.regs_per_cta)
        if kernel.shmem_per_cta:
            limit = min(limit, (config.shared_mem_per_sm - self.used_shmem)
                        // kernel.shmem_per_cta)
        return max(limit, 0)

    def active_count(self, kernel_id: int) -> int:
        return self.kernel_active.get(kernel_id, 0)

    def dispatch(self, run: "KernelRun", cta_id: int, seq: int, block_seq: int,
                 now: int) -> CTA:
        """Create a CTA, build its warp traces, and make its warps schedulable."""
        kernel = run.kernel
        cta = CTA(run, cta_id, seq, block_seq, self, now)
        for warp_idx in range(kernel.warps_per_cta):
            program = kernel.build_warp_program(cta_id, warp_idx)
            warp = Warp(cta, warp_idx, program)
            warp.state_since = now
            scheduler = self.schedulers[self._sched_rr]
            self._sched_rr = (self._sched_rr + 1) % len(self.schedulers)
            warp.scheduler = scheduler
            warp.epoch += 1
            scheduler.on_ready(warp)
            self.num_ready += 1
            cta.warps.append(warp)
        self.gate_blocked = False
        self.active_ctas.append(cta)
        self.used_slots += 1
        self.used_warps += kernel.warps_per_cta
        self.used_regs += run.regs_per_cta
        self.used_shmem += kernel.shmem_per_cta
        # Kernel ids are pre-registered at launch (see GPU.launch), so this
        # is a plain increment rather than a get()+store pair.
        self.kernel_active[run.kernel_id] += 1
        return cta

    def _release(self, cta: CTA, now: int) -> None:
        cta.complete_cycle = now
        self.active_ctas.remove(cta)
        self.used_slots -= 1
        self.used_warps -= cta.num_warps
        self.used_regs -= cta.run.regs_per_cta
        self.used_shmem -= cta.kernel.shmem_per_cta
        self.kernel_active[cta.run.kernel_id] -= 1
        self.completed_ctas += 1
        self.gpu.on_cta_complete(self, cta, now)

    # ------------------------------------------------------------------ #
    # Per-cycle behaviour
    def tick(self, now: int) -> bool:
        """Advance one cycle; returns True if the SM can still make progress
        without waiting for a memory-system event."""
        active = False
        if self.ldst and not self.ldst_blocked:
            self._ldst_tick(now)
            active = True
        if self.num_ready and not self.gate_blocked:
            ldst = self.ldst
            depth = self._ldst_depth
            qfull = self._can_issue_qfull
            issued_any = False
            for scheduler in self.schedulers:
                # With LD/ST queue space free, *every* ready warp passes the
                # structural check, so skip the per-warp call entirely; when
                # the queue is full it cannot drain during a pick, so only
                # the instruction kind matters (the queue can fill mid-loop,
                # hence the per-scheduler test).  A scheduler whose last
                # pick under a full queue found nothing is skipped until a
                # warp of its own becomes READY or issues (see
                # ``WarpScheduler.qfull_idle``).
                if len(ldst) < depth:
                    warp = scheduler.pick(None)
                elif scheduler.qfull_idle:
                    continue
                else:
                    warp = scheduler.pick(qfull)
                    if warp is None:
                        scheduler.qfull_idle = True
                        continue
                if warp is not None:
                    self._issue(warp, scheduler, now)
                    issued_any = True
            if issued_any:
                active = True
            else:
                # Every candidate is waiting for an LD/ST queue slot; skip
                # the issue stage until the queue drains or a warp wakes.
                self.gate_blocked = True
        return active

    @staticmethod
    def _can_issue_qfull(warp: Warp) -> bool:
        """The issue-stage structural check under a full LD/ST queue: a
        memory instruction needs a free queue slot, which cannot open
        during a pick, so only the instruction kind matters."""
        op = warp.program.ops[warp.pc]
        return op != _LD_GLOBAL and op != _ST_GLOBAL

    def _issue(self, warp: Warp, scheduler, now: int) -> None:
        program = warp.program
        pc = warp.pc
        warp.t_ready += now - warp.state_since   # leaving READY
        warp.state_since = now
        warp.pc = pc + 1
        warp.issued += 1
        warp.cta.issued_instrs += 1
        self.issued += 1
        scheduler.on_issue(warp, now)
        self.num_ready -= 1
        op = program.ops[pc]
        if op < _LD_GLOBAL:   # ALU or SHARED
            warp.state = WarpState.WAIT_ALU
            # GPU._drain_wakes calls _wake_alu for it at cycle ``at``.
            at = now + program.lat[pc]
            bucket = self._cal.get(at)
            if bucket is None:
                self._cal[at] = [warp]
                heappush(self._calheap, at)
            else:
                bucket.append(warp)
        elif op == _LD_GLOBAL:
            warp.state = WarpState.WAIT_MEM
            self.ldst.append(MemRequest(warp, program.lines[pc], is_store=False))
        elif op == _ST_GLOBAL:
            warp.state = WarpState.WAIT_MEM
            self.ldst.append(MemRequest(warp, program.lines[pc], is_store=True))
        elif op == Op.BARRIER:
            warp.cta.issued_barriers += 1
            self._arrive_barrier(warp, now)
        else:  # Op.EXIT
            warp.state = WarpState.DONE
            cta = warp.cta
            cta.done_warps += 1
            if cta.complete:
                self._release(cta, now)
            elif cta.barrier_arrived and cta.barrier_arrived >= cta.live_warps:
                # This warp's exit satisfied a barrier its siblings wait at
                # (traces with uneven barrier counts; CUDA forbids this but
                # the simulator must not deadlock on it).
                self._release_barrier(cta, now)

    def _release_barrier(self, cta: CTA, now: int) -> None:
        cta.barrier_arrived = 0
        for peer in cta.warps:
            if peer.state == WarpState.WAIT_BARRIER:
                peer.t_barrier += now - peer.state_since
                peer.state_since = now
                peer.state = WarpState.READY
                peer.epoch += 1
                peer.scheduler.on_ready(peer)
                self.num_ready += 1
        self.gate_blocked = False

    def _arrive_barrier(self, warp: Warp, now: int) -> None:
        cta = warp.cta
        warp.state = WarpState.WAIT_BARRIER
        cta.barrier_arrived += 1
        if cta.barrier_arrived >= cta.live_warps:
            self._release_barrier(cta, now)

    def _wake_alu(self, now: int, warp: Warp) -> None:
        warp.t_alu += now - warp.state_since
        warp.state_since = now
        warp.state = WarpState.READY
        warp.epoch += 1
        warp.scheduler.on_ready(warp)
        self.num_ready += 1
        self.gate_blocked = False

    def _wake_mem(self, now: int, warp: Warp) -> None:
        warp.t_mem += now - warp.state_since
        warp.state_since = now
        warp.state = WarpState.READY
        warp.epoch += 1
        warp.scheduler.on_ready(warp)
        self.num_ready += 1
        self.gate_blocked = False

    # ------------------------------------------------------------------ #
    # LD/ST unit
    def _ldst_tick(self, now: int) -> None:
        l1 = self.l1
        request = self.ldst[0]
        line = request.lines[request.idx]
        if request.is_store:
            # Write-through, no-allocate: probe updates LRU on hit, then the
            # write travels to L2 — unless the write-combining window just
            # saw the same line.
            l1.write_probe(line)
            if self._store_coalescing and self._store_absorbed(line):
                l1.stats.stores_coalesced += 1
            else:
                self._mem.store(self, line, now)
        else:
            outcome = l1.lookup_load(line, request)
            if outcome is Access.STALL:
                self.ldst_blocked = True
                return
            if outcome is Access.MISS:
                request.outstanding += 1
                self._mem.load(self, line, now)
                if self._prefetch_next:
                    self._maybe_prefetch(line + 1, now)
            elif outcome is Access.MERGED:
                request.outstanding += 1
            # Access.HIT needs no further action.
        request.idx += 1
        if request.idx == len(request.lines):
            self.ldst.popleft()
            self.gate_blocked = False   # a queue slot opened up
            request.accepted = True
            if request.complete:
                # All transactions hit (or it was a store): the warp resumes
                # after the L1 hit latency.
                self._events.schedule(now + self._l1_hit_latency,
                                      self._wake_mem_event, request.warp)

    def _wake_mem_event(self, now: int, warp: Warp) -> None:
        self._wake_mem(now, warp)

    def _store_absorbed(self, line: int) -> bool:
        """True if the write-combining window absorbs this store."""
        if line in self._store_window_set:
            return True
        if len(self._store_window) == self._store_window.maxlen \
                and self._store_window:
            self._store_window_set.discard(self._store_window[0])
        self._store_window.append(line)
        self._store_window_set.add(line)
        return False

    def _maybe_prefetch(self, line: int, now: int) -> None:
        """Best-effort next-line prefetch: never stalls, never merges —
        dropped outright when the line is present, pending, or no MSHR
        entry is free."""
        l1 = self.l1
        if l1.contains(line) or l1.pending(line) or l1.mshr_free == 0:
            return
        outcome = l1.lookup_load(line, self.PREFETCH)
        if outcome is Access.MISS:
            # Undo the demand-access accounting for the speculative fetch.
            l1.stats.accesses -= 1
            l1.stats.misses -= 1
            l1.stats.prefetches += 1
            self._mem.load(self, line, now)

    def mem_response(self, now: int, line: int) -> None:
        """A missed line returned from the memory system: fill L1, wake warps."""
        self.ldst_blocked = False
        for request in self.l1.fill(line):
            if request is self.PREFETCH:
                continue
            request.outstanding -= 1
            if request.complete:
                self._wake_mem(now, request.warp)

    # ------------------------------------------------------------------ #
    @property
    def resident_warps(self) -> int:
        return self.used_warps

    def ctas_of(self, kernel_id: int) -> list[CTA]:
        return [cta for cta in self.active_ctas if cta.run.kernel_id == kernel_id]

    def resident_warp_states(self) -> list[WarpState]:
        """States of every non-DONE warp of the resident CTAs.

        The read-only sampling view DynCTA-style policies use (a policy
        that walked ``cta.warps`` directly would see stale state on the
        vector backend, which keeps warp state in columns and writes the
        ``Warp`` objects back only at CTA completion).  Order is
        unspecified; callers aggregate.
        """
        return [warp.state for cta in self.active_ctas
                for warp in cta.warps if not warp.done]

    # ------------------------------------------------------------------ #
    # Telemetry probe interface (read-only; see repro.telemetry.probes).
    def warp_state_counts(self) -> tuple[int, int, int, int]:
        """Resident warps per state: (ready, wait_alu, wait_mem, wait_barrier).

        DONE warps of still-resident CTAs are excluded — they no longer
        compete for anything.  Pure read; never mutates scheduler state.
        """
        ready = alu = mem = barrier = 0
        for cta in self.active_ctas:
            for warp in cta.warps:
                state = warp.state
                if state == WarpState.READY:
                    ready += 1
                elif state == WarpState.WAIT_ALU:
                    alu += 1
                elif state == WarpState.WAIT_MEM:
                    mem += 1
                elif state == WarpState.WAIT_BARRIER:
                    barrier += 1
        return ready, alu, mem, barrier

    def telemetry_snapshot(self) -> dict:
        """Instantaneous core state for telemetry probes (read-only)."""
        ready, alu, mem, barrier = self.warp_state_counts()
        return {
            "sm": self.sm_id,
            "issued": self.issued,
            "resident_ctas": self.used_slots,
            "resident_warps": self.used_warps,
            "ldst_queue": len(self.ldst),
            "l1_mshr_occupancy": self.l1.outstanding_misses,
            "warps_ready": ready,
            "warps_wait_alu": alu,
            "warps_wait_mem": mem,
            "warps_wait_barrier": barrier,
        }
