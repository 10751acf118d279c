"""In-flight invariant sanitizer: conservation laws checked *during* a run.

:mod:`repro.harness.validate` checks the finished :class:`RunResult`; this
module checks the live machine while it is still running, so corruption
(a bookkeeping bug, a bad checkpoint restore, an injected ``corrupt``
fault) is caught at the window boundary where state first goes bad instead
of surfacing as silently-wrong statistics at end-of-run.

An :class:`InvariantSanitizer` is handed to ``GPU.run(..., sanitizer=)``
(usually via ``simulate(..., sanitize=True)`` or the CLIs' ``--sanitize``)
and invoked from the loop top every :attr:`~InvariantSanitizer.interval`
cycles — the same quiescent boundaries telemetry samples at, so the checks
read state only and can never perturb results.  A violated invariant
raises a typed :class:`InvariantViolation`, which the batch engine
classifies as *deterministic* (retrying would re-corrupt identically).

Checked invariant families (the live mirrors of ``validate_run``):

* **CTA conservation** — per kernel, CTAs dispatched = completed +
  resident, with ``0 <= completed <= dispatched <= num_ctas``.
* **SM resource accounting** — slot/warp/register/shared-memory usage
  recomputed from the resident CTA list equals the incremental counters,
  and every counter respects its configured hardware limit (occupancy can
  never exceed the config).
* **Cache/MSHR balance** — ``accesses = hits + misses + merges`` for every
  L1 and L2 bank, outstanding MSHR entries within capacity, every pending
  entry carrying at least one (and at most ``mshr_max_merge``) waiters.
* **Monotonicity** — the cycle counter and every cumulative statistic
  (issued instructions, cache accesses, DRAM traffic) only move forward
  between consecutive checks.
* **Wake calendar** — the GPU's ALU wake calendar holds one entry per
  WAIT_ALU warp (summed from ``sm.warp_state_counts()``, so both cores
  are checked the same way), its heap and its dict hold the same cycles,
  and no pending wake is earlier than the current cycle.
* **Event calendar** — the event queue's heap holds the cycle of every
  bucket exactly once and nothing else, in heap order (the run loop
  reads its head), no bucket is empty and none is earlier than the
  current cycle.

The ``REPRO_SANITIZE`` environment variable (any non-empty value) turns
the sanitizer on for every ``simulate()`` call that does not say
otherwise, so CI can run the whole tier-1 suite sanitized without
touching a single test.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .gpu import SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..mem.cache import Cache
    from .gpu import GPU

#: Environment variable honoured by ``simulate(..., sanitize=None)``.
ENV_SANITIZE = "REPRO_SANITIZE"

#: Default check period in cycles (matches the default telemetry window).
DEFAULT_SANITIZE_INTERVAL = 1000


class InvariantViolation(SimulationError):
    """A live-state conservation law failed mid-run.

    Deterministic by definition: the same inputs corrupt the same state at
    the same cycle, so the batch engine never retries one.
    """

    def __init__(self, message: str, *, cycle: int, check: str) -> None:
        super().__init__(f"invariant {check!r} violated at cycle {cycle}: "
                         f"{message}")
        self.cycle = cycle
        self.check = check


class InvariantSanitizer:
    """Periodic live-state checker driven from the ``GPU.run`` loop top."""

    def __init__(self, interval: int = DEFAULT_SANITIZE_INTERVAL) -> None:
        if interval < 1:
            raise ValueError(f"sanitize interval must be >= 1, got {interval}")
        self.interval = interval
        self.checks_run = 0
        self._last_cycle: int | None = None
        # Cumulative-counter baselines from the previous check, keyed by a
        # stable label; reset on resume (a fresh sanitizer) is safe — the
        # monotone checks simply restart from the restored values.
        self._baselines: dict[str, int] = {}

    # ------------------------------------------------------------------ #
    def check(self, gpu: "GPU", cycle: int) -> None:
        """Run every invariant family; raise on the first violation."""
        self.checks_run += 1
        self._check_cycle(cycle)
        self._check_cta_conservation(gpu, cycle)
        self._check_sm_resources(gpu, cycle)
        self._check_caches(gpu, cycle)
        self._check_monotone(gpu, cycle)
        self._check_wake_calendar(gpu, cycle)
        self._check_event_calendar(gpu, cycle)

    # ------------------------------------------------------------------ #
    def _check_cycle(self, cycle: int) -> None:
        last = self._last_cycle
        if cycle < 0 or (last is not None and cycle <= last):
            raise InvariantViolation(
                f"cycle moved from {last} to {cycle}",
                cycle=cycle, check="monotone-cycle")
        self._last_cycle = cycle

    def _check_cta_conservation(self, gpu: "GPU", cycle: int) -> None:
        for run in gpu.runs:
            dispatched, completed = run.next_cta, run.completed
            total = run.kernel.num_ctas
            if not 0 <= completed <= dispatched <= total:
                raise InvariantViolation(
                    f"kernel {run.kernel.name!r}: completed={completed}, "
                    f"dispatched={dispatched}, num_ctas={total}",
                    cycle=cycle, check="cta-bounds")
            resident = sum(sm.kernel_active.get(run.kernel_id, 0)
                           for sm in gpu.sms)
            if dispatched - completed != resident:
                raise InvariantViolation(
                    f"kernel {run.kernel.name!r}: dispatched({dispatched}) - "
                    f"completed({completed}) != resident({resident})",
                    cycle=cycle, check="cta-conservation")
        total_completed = sum(run.completed for run in gpu.runs)
        by_sm = sum(sm.completed_ctas for sm in gpu.sms)
        if total_completed != by_sm:
            raise InvariantViolation(
                f"per-SM completions ({by_sm}) != per-kernel completions "
                f"({total_completed})", cycle=cycle, check="cta-conservation")

    def _check_sm_resources(self, gpu: "GPU", cycle: int) -> None:
        config = gpu.config
        for sm in gpu.sms:
            ctas = sm.active_ctas
            slots = len(ctas)
            warps = sum(len(cta.warps) for cta in ctas)
            regs = sum(cta.run.regs_per_cta for cta in ctas)
            shmem = sum(cta.run.kernel.shmem_per_cta for cta in ctas)
            recomputed = (slots, warps, regs, shmem)
            counters = (sm.used_slots, sm.used_warps, sm.used_regs,
                        sm.used_shmem)
            if recomputed != counters:
                raise InvariantViolation(
                    f"SM{sm.sm_id}: counters (slots,warps,regs,shmem)="
                    f"{counters} but resident CTAs say {recomputed}",
                    cycle=cycle, check="sm-accounting")
            limits = (config.max_ctas_per_sm, config.max_warps_per_sm,
                      config.registers_per_sm, config.shared_mem_per_sm)
            if any(used > limit for used, limit in zip(counters, limits)):
                raise InvariantViolation(
                    f"SM{sm.sm_id}: usage {counters} exceeds configured "
                    f"limits {limits}", cycle=cycle, check="occupancy-limit")
            active = {kid: 0 for kid in sm.kernel_active}
            for cta in ctas:
                active[cta.run.kernel_id] = active.get(cta.run.kernel_id,
                                                       0) + 1
            if active != sm.kernel_active:
                raise InvariantViolation(
                    f"SM{sm.sm_id}: kernel_active={sm.kernel_active} but "
                    f"resident CTAs say {active}",
                    cycle=cycle, check="sm-accounting")
            for cta in ctas:
                if not 0 <= cta.done_warps <= len(cta.warps):
                    raise InvariantViolation(
                        f"SM{sm.sm_id} CTA{cta.cta_id}: done_warps="
                        f"{cta.done_warps} of {len(cta.warps)}",
                        cycle=cycle, check="cta-bounds")
            if sm.num_ready < 0 or sm.issued < 0:
                raise InvariantViolation(
                    f"SM{sm.sm_id}: num_ready={sm.num_ready}, "
                    f"issued={sm.issued}", cycle=cycle, check="sm-accounting")

    def _check_caches(self, gpu: "GPU", cycle: int) -> None:
        caches: list["Cache"] = [sm.l1 for sm in gpu.sms]
        caches.extend(gpu.mem.l2_banks)
        for cache in caches:
            stats = cache.stats
            if stats.accesses != stats.hits + stats.misses + stats.merges:
                raise InvariantViolation(
                    f"{cache.name}: accesses({stats.accesses}) != "
                    f"hits({stats.hits}) + misses({stats.misses}) + "
                    f"merges({stats.merges})",
                    cycle=cycle, check="cache-balance")
            if stats.write_hits > stats.write_accesses:
                raise InvariantViolation(
                    f"{cache.name}: write_hits({stats.write_hits}) > "
                    f"write_accesses({stats.write_accesses})",
                    cycle=cycle, check="cache-balance")
            outstanding = cache._mshr
            if len(outstanding) > cache.mshr_entries:
                raise InvariantViolation(
                    f"{cache.name}: {len(outstanding)} outstanding MSHR "
                    f"entries exceed capacity {cache.mshr_entries}",
                    cycle=cycle, check="mshr-balance")
            for line, waiters in outstanding.items():
                if not 1 <= len(waiters) <= cache.mshr_max_merge:
                    raise InvariantViolation(
                        f"{cache.name}: MSHR entry for line {line:#x} has "
                        f"{len(waiters)} waiters (max_merge="
                        f"{cache.mshr_max_merge})",
                        cycle=cycle, check="mshr-balance")

    def _check_monotone(self, gpu: "GPU", cycle: int) -> None:
        counters: dict[str, int] = {"issued": gpu.total_issued}
        for sm in gpu.sms:
            counters[f"l1[{sm.sm_id}].accesses"] = sm.l1.stats.accesses
        for index, bank in enumerate(gpu.mem.l2_banks):
            counters[f"l2[{index}].accesses"] = bank.stats.accesses
        dram = gpu.mem.dram.stats
        counters["dram.reads"] = dram.reads
        counters["dram.writes"] = dram.writes
        baselines = self._baselines
        for name, value in counters.items():
            previous = baselines.get(name)
            if value < 0 or (previous is not None and value < previous):
                raise InvariantViolation(
                    f"counter {name} moved from {previous} to {value}",
                    cycle=cycle, check="monotone-stats")
        self._baselines = counters

    def _check_wake_calendar(self, gpu: "GPU", cycle: int) -> None:
        calendar = gpu._wake_cal
        cycles = sorted(calendar)
        if sorted(gpu._wake_heap) != cycles:
            raise InvariantViolation(
                f"calendar heap holds {len(gpu._wake_heap)} cycle(s), its "
                f"buckets {len(cycles)}; they must hold the same cycles",
                cycle=cycle, check="wake-calendar")
        if cycles and cycles[0] < cycle:
            raise InvariantViolation(
                f"a wake due at cycle {cycles[0]} is still pending",
                cycle=cycle, check="wake-calendar")
        entries = sum(len(bucket) for bucket in calendar.values())
        waiting = sum(sm.warp_state_counts()[1] for sm in gpu.sms)
        if entries != waiting:
            raise InvariantViolation(
                f"{entries} calendar wake(s) for {waiting} WAIT_ALU "
                f"warp(s)", cycle=cycle, check="wake-calendar")

    def _check_event_calendar(self, gpu: "GPU", cycle: int) -> None:
        buckets = gpu.events._buckets
        heap = gpu.events._heap
        cycles = sorted(buckets)
        if sorted(heap) != cycles:
            raise InvariantViolation(
                f"event heap holds {len(heap)} cycle(s), the queue "
                f"{len(cycles)} bucket(s); each bucket's cycle must be on "
                f"the heap exactly once", cycle=cycle, check="event-calendar")
        if any(heap[index] < heap[(index - 1) // 2]
               for index in range(1, len(heap))):
            raise InvariantViolation(
                f"event heap out of order: head {heap[0]}, earliest "
                f"bucket {cycles[0]}", cycle=cycle, check="event-calendar")
        if cycles and cycles[0] < cycle:
            raise InvariantViolation(
                f"an event due at cycle {cycles[0]} is still pending",
                cycle=cycle, check="event-calendar")
        for at in cycles:
            if not buckets[at]:
                raise InvariantViolation(
                    f"the event bucket for cycle {at} is empty",
                    cycle=cycle, check="event-calendar")
