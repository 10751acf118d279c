"""``VectorSM`` — the SM hot path over warp columns.

Subclasses :class:`repro.sim.sm.SM` so every *cold* path (resource
accounting, ``can_accept``/``free_cta_capacity``, the store-coalescing
window, prefetch, telemetry snapshot assembly) is inherited unchanged, and
overrides exactly the per-cycle machinery:

* ``dispatch``    — copies each warp's ``ops``/``lat``/``lines`` from the
  column program :meth:`repro.sim.kernel.Kernel.build_warp_program` built
  and checked (the same call the object core makes) into the SM's slot
  columns;
* ``tick``        — int-heap picks + column-based issue, fully inlined
  (pick, issue and ALU-wake scheduling are one bytecode stream — the
  per-warp virtual dispatch of the object core is the cost this backend
  exists to remove);
* ``_ldst_tick``  — same L1/queue walk, but the request's ``warp`` field
  carries the *slot id* (the memory subsystem treats it opaquely), so a
  hit-completion wakeup is an ``EventQueue`` entry for
  :meth:`VectorSM._wake_mem_slot`, as the object core's is for
  ``_wake_mem_event``;
* ``mem_response``— fills wake slots directly, no object hop;
* ``warp_state_counts`` / ``resident_warp_states`` — column reads for the
  telemetry probes and the DynCTA sampler.

Parity invariants this file preserves (vs. the object core):

* Issue order: each scheduler examines candidates in exactly the object
  heap's priority order (the packed-int keys order identically, see
  :mod:`.sched`), with the same greedy-pointer and SCAN_LIMIT semantics.
* Wake attribution: a wakeup adds ``now - state_since`` to the same
  ``t_*`` bucket at the same ``now`` the object core's event callback
  would have used (the loop's current cycle, not the scheduled cycle —
  ``EventQueue.run_due`` passes the loop clock).
* Wake ordering: ALU/SHARED completions go into the GPU's shared wake
  calendar, which the loop drains before the events due in the same
  cycle.  That is safe only because no event callback can observe a
  WAIT_ALU -> READY change.  A WAIT_MEM -> READY change *is* observable:
  DynCTA's ``_sample`` counts WAIT_MEM warps, so L1-hit and store wakes
  ride the event queue in FIFO order with it, exactly as on the object
  core.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import TYPE_CHECKING, Callable

from ...mem.cache import Access
from ..config import GPUConfig
from ..cta import CTA
from ..sm import PREFETCH, SM
from ..warp import MemRequest, Warp
from . import VectorBackendError
from .columns import WarpColumns
from .sched import (AGE_BITS, GREEDY_KINDS, IDX_BITS, LI_BITS, MAX_CTA_SEQ,
                    MAX_SLOTS, MAX_WARP_IDX, SCAN_LIMIT, SLOT_BITS,
                    SLOT_MASK, VecScheduler)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..gpu import KernelRun
    from .gpu import VectorGPU

#: Vector warps run from the slot columns, whose ``pc`` the ``Warp``
#: objects (kept for completion-time stats sync and policy hooks) see only
#: at CTA completion, so they get an empty program: any accidental read of
#: ``warp.program.ops`` on this backend fails loudly instead of lying.
_NO_PROGRAM: tuple = ()


class VectorSM(SM):
    __slots__ = ("cols", "_state", "_pc", "_since", "_t_ready", "_t_alu",
                 "_t_mem", "_t_barrier", "_li", "_ekey", "_ops", "_lat",
                 "_lines", "_cta_of", "_sched_of", "_age", "_baws",
                 "_cta_slots", "_vsched", "_kind", "_greedy", "_wake_base")

    def __init__(self, gpu: "VectorGPU", sm_id: int, config: GPUConfig,
                 scheduler_factory: Callable[[], object], kind: int) -> None:
        super().__init__(gpu, sm_id, config, scheduler_factory)
        self.cols = WarpColumns()
        cols = self.cols
        # Aliases of the column lists (same objects, mutated in place):
        # the hot path reads them as one attribute hop instead of two.
        self._state = cols.state
        self._pc = cols.pc
        self._since = cols.since
        self._t_ready = cols.t_ready
        self._t_alu = cols.t_alu
        self._t_mem = cols.t_mem
        self._t_barrier = cols.t_barrier
        self._li = cols.last_issue
        self._ekey = cols.entry_key
        self._ops = cols.ops
        self._lat = cols.lat
        self._lines = cols.lines
        self._cta_of = cols.ctas
        self._sched_of = cols.sched
        self._age = cols.age
        self._baws = cols.baws_base
        #: cta.seq -> list of slot ids (insertion = warp index order).
        self._cta_slots: dict[int, list[int]] = {}
        self._vsched = [VecScheduler() for _ in range(config.issue_width)]
        self._kind = kind
        self._greedy = kind in GREEDY_KINDS
        # ALU wake-calendar entry layout: sm_id << SLOT_BITS | slot.
        self._wake_base = sm_id << SLOT_BITS

    # ------------------------------------------------------------------ #
    # Dispatch
    def dispatch(self, run: "KernelRun", cta_id: int, seq: int,
                 block_seq: int, now: int) -> CTA:
        kernel = run.kernel
        if seq >= MAX_CTA_SEQ:
            raise VectorBackendError(
                f"CTA seq {seq} exceeds the vector backend's packed-key "
                f"capacity ({MAX_CTA_SEQ}); use --backend object")
        if kernel.warps_per_cta > MAX_WARP_IDX:
            raise VectorBackendError(
                f"{kernel.warps_per_cta} warps/CTA exceeds the vector "
                f"backend's packed-key capacity ({MAX_WARP_IDX}); "
                f"use --backend object")
        if len(self._state) + kernel.warps_per_cta > MAX_SLOTS:
            raise VectorBackendError(
                f"SM {self.sm_id} exceeds {MAX_SLOTS} lifetime warp slots; "
                f"use --backend object")
        cta = CTA(run, cta_id, seq, block_seq, self, now)
        cols = self.cols
        vsched = self._vsched
        nsched = len(vsched)
        baws_high = block_seq << (LI_BITS + AGE_BITS)
        slots = []
        for warp_idx in range(kernel.warps_per_cta):
            trace = kernel.build_warp_program(cta_id, warp_idx)
            warp = Warp(cta, warp_idx, _NO_PROGRAM)
            warp.state_since = now
            sched_idx = self._sched_rr
            self._sched_rr = (sched_idx + 1) % nsched
            age = (seq << IDX_BITS) | warp_idx
            slot = cols.add(
                warp, cta, now=now, sched=sched_idx, age=age,
                baws_base=baws_high | age, program=trace)
            self._push(vsched[sched_idx], slot)
            self.num_ready += 1
            cta.warps.append(warp)
            slots.append(slot)
        self._cta_slots[seq] = slots
        self.gate_blocked = False
        self.active_ctas.append(cta)
        self.used_slots += 1
        self.used_warps += kernel.warps_per_cta
        self.used_regs += run.regs_per_cta
        self.used_shmem += kernel.shmem_per_cta
        self.kernel_active[run.kernel_id] += 1
        return cta

    # ------------------------------------------------------------------ #
    # Scheduler primitives (cold-path form; the tick inlines this logic)
    def _push(self, sched: VecScheduler, slot: int) -> None:
        """``on_ready``: (re-)insert a slot into its scheduler heap."""
        if slot == sched.greedy_slot:
            # The greedy pointer guarantees this slot is picked while
            # READY; a heap entry would only ever be skipped as stale.
            return
        kind = self._kind
        if kind == 1:    # gto: oldest first
            key = self._age[slot]
        elif kind == 0:  # lrr: least recently issued first
            key = ((self._li[slot] + 1) << AGE_BITS) | self._age[slot]
        else:            # baws: oldest block, then least recently issued
            key = self._baws[slot] + ((self._li[slot] + 1) << AGE_BITS)
        self._ekey[slot] = key
        heappush(sched.heap, (key << SLOT_BITS) | slot)

    # ------------------------------------------------------------------ #
    # Per-cycle behaviour
    def tick(self, now: int) -> bool:
        active = False
        if self.ldst and not self.ldst_blocked:
            self._ldst_tick(now)
            active = True
        if self.num_ready and not self.gate_blocked:
            state = self._state
            ops = self._ops
            pcs = self._pc
            ekey = self._ekey
            since = self._since
            t_ready = self._t_ready
            lat = self._lat
            lines = self._lines
            cta_of = self._cta_of
            li = self._li
            cal = self._cal
            calheap = self._calheap
            wake_base = self._wake_base
            ldst = self.ldst
            depth = self._ldst_depth
            greedy = self._greedy
            push = heappush
            pop = heappop
            issued = 0
            for sched in self._vsched:
                # ---- pick (the object scheduler's exact priority walk) --
                qfull = len(ldst) >= depth
                slot = -1
                if greedy:
                    g = sched.greedy_slot
                    if g >= 0 and state[g] == 0:
                        if not qfull:
                            slot = g
                        else:
                            op = ops[g][pcs[g]]
                            if op < 2 or op > 3:  # not LD/ST
                                slot = g
                            else:
                                # Greedy warp blocked at issue: make it
                                # findable again, let age order decide.
                                sched.greedy_slot = -1
                                self._push(sched, g)
                if slot < 0:
                    heap = sched.heap
                    if qfull:
                        skipped = None
                        scans = 0
                        while heap:
                            entry = pop(heap)
                            s = entry & SLOT_MASK
                            if state[s] != 0 or \
                                    (entry >> SLOT_BITS) != ekey[s]:
                                continue  # stale entry
                            op = ops[s][pcs[s]]
                            if op < 2 or op > 3:
                                slot = s
                                break
                            if skipped is None:
                                skipped = [entry]
                            else:
                                skipped.append(entry)
                            scans += 1
                            if scans >= SCAN_LIMIT:
                                break
                        if skipped is not None:
                            for entry in skipped:
                                push(heap, entry)
                    else:
                        while heap:
                            entry = pop(heap)
                            s = entry & SLOT_MASK
                            if state[s] == 0 and \
                                    (entry >> SLOT_BITS) == ekey[s]:
                                slot = s
                                break
                    if greedy:
                        sched.greedy_slot = slot
                if slot < 0:
                    continue
                # ---- issue ------------------------------------------- #
                issued += 1
                pc = pcs[slot]
                op = ops[slot][pc]
                t_ready[slot] += now - since[slot]    # leaving READY
                since[slot] = now
                pcs[slot] = pc + 1
                cta = cta_of[slot]
                cta.issued_instrs += 1
                # Incremented *before* the op branch: completion hooks
                # (the LCS monitor) read sm.issued mid-tick.
                self.issued += 1
                li[slot] = now                        # on_issue
                self.num_ready -= 1
                if op < 2:       # ALU / SHARED
                    state[slot] = 1
                    at = now + lat[slot][pc]
                    bucket = cal.get(at)
                    if bucket is None:
                        cal[at] = [wake_base | slot]
                        push(calheap, at)
                    else:
                        bucket.append(wake_base | slot)
                elif op == 2:    # LD_GLOBAL
                    state[slot] = 2
                    ldst.append(
                        MemRequest(slot, lines[slot][pc], is_store=False))
                elif op == 3:    # ST_GLOBAL
                    state[slot] = 2
                    ldst.append(
                        MemRequest(slot, lines[slot][pc], is_store=True))
                elif op == 4:    # BARRIER
                    cta.issued_barriers += 1
                    state[slot] = 3
                    cta.barrier_arrived += 1
                    if cta.barrier_arrived >= \
                            len(cta.warps) - cta.done_warps:
                        self._release_barrier_vec(cta, now)
                else:            # EXIT
                    state[slot] = 4
                    cta.done_warps += 1
                    if cta.done_warps == len(cta.warps):
                        self._release_vec(cta, now)
                    elif cta.barrier_arrived and \
                            cta.barrier_arrived >= \
                            len(cta.warps) - cta.done_warps:
                        # Exit satisfied a barrier its siblings wait at
                        # (uneven barrier counts; must not deadlock).
                        self._release_barrier_vec(cta, now)
            if issued:
                active = True
            else:
                self.gate_blocked = True
        return active

    # ------------------------------------------------------------------ #
    # Wakeups / barrier release
    def _wake_alu_slot(self, now: int, slot: int) -> None:
        self._t_alu[slot] += now - self._since[slot]
        self._since[slot] = now
        self._state[slot] = 0
        sched = self._vsched[self._sched_of[slot]]
        if slot != sched.greedy_slot:
            kind = self._kind
            if kind == 1:
                key = self._age[slot]
            elif kind == 0:
                key = ((self._li[slot] + 1) << AGE_BITS) | self._age[slot]
            else:
                key = self._baws[slot] + ((self._li[slot] + 1) << AGE_BITS)
            self._ekey[slot] = key
            heappush(sched.heap, (key << SLOT_BITS) | slot)
        self.num_ready += 1
        self.gate_blocked = False

    def _wake_mem_slot(self, now: int, slot: int) -> None:
        self._t_mem[slot] += now - self._since[slot]
        self._since[slot] = now
        self._state[slot] = 0
        sched = self._vsched[self._sched_of[slot]]
        if slot != sched.greedy_slot:
            kind = self._kind
            if kind == 1:
                key = self._age[slot]
            elif kind == 0:
                key = ((self._li[slot] + 1) << AGE_BITS) | self._age[slot]
            else:
                key = self._baws[slot] + ((self._li[slot] + 1) << AGE_BITS)
            self._ekey[slot] = key
            heappush(sched.heap, (key << SLOT_BITS) | slot)
        self.num_ready += 1
        self.gate_blocked = False

    def _release_barrier_vec(self, cta: CTA, now: int) -> None:
        cta.barrier_arrived = 0
        state = self._state
        since = self._since
        t_barrier = self._t_barrier
        vsched = self._vsched
        sched_of = self._sched_of
        woke = 0
        for slot in self._cta_slots[cta.seq]:
            if state[slot] == 3:
                t_barrier[slot] += now - since[slot]
                since[slot] = now
                state[slot] = 0
                self._push(vsched[sched_of[slot]], slot)
                woke += 1
        self.num_ready += woke
        self.gate_blocked = False

    def _release_vec(self, cta: CTA, now: int) -> None:
        # Results and policy hooks read the completing CTA's warps
        # (t_* stall accounting, final pc/state): write the columns back.
        cols = self.cols
        for slot in self._cta_slots.pop(cta.seq):
            cols.sync_warp(slot)
        self._release(cta, now)

    # ------------------------------------------------------------------ #
    # LD/ST unit
    def _ldst_tick(self, now: int) -> None:
        l1 = self.l1
        ldst = self.ldst
        request = ldst[0]
        idx = request.idx
        req_lines = request.lines
        line = req_lines[idx]
        if request.is_store:
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
        request.idx = idx + 1
        if idx + 1 == len(req_lines):
            ldst.popleft()
            self.gate_blocked = False   # a queue slot opened up
            request.accepted = True
            if request.complete:
                # All transactions hit (or it was a store): the warp
                # resumes after the L1 hit latency.  An event, not a
                # calendar entry: a same-cycle DynCTA sample counts
                # WAIT_MEM warps and must see this wake in FIFO order.
                self._events.schedule(now + self._l1_hit_latency,
                                      self._wake_mem_slot, request.warp)

    def mem_response(self, now: int, line: int) -> None:
        self.ldst_blocked = False
        for request in self.l1.fill(line):
            if request is PREFETCH:
                continue
            request.outstanding -= 1
            if request.complete:
                self._wake_mem_slot(now, request.warp)

    # ------------------------------------------------------------------ #
    # Read-only views (telemetry probes, DynCTA sampling)
    def warp_state_counts(self) -> tuple[int, int, int, int]:
        ready = alu = mem = barrier = 0
        state = self._state
        cta_slots = self._cta_slots
        for cta in self.active_ctas:
            for slot in cta_slots[cta.seq]:
                value = state[slot]
                if value == 0:
                    ready += 1
                elif value == 1:
                    alu += 1
                elif value == 2:
                    mem += 1
                elif value == 3:
                    barrier += 1
        return ready, alu, mem, barrier

    def resident_warp_states(self) -> list[int]:
        state = self._state
        cta_slots = self._cta_slots
        return [state[slot]
                for cta in self.active_ctas
                for slot in cta_slots[cta.seq]
                if state[slot] != 4]
