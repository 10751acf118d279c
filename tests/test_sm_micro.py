"""Micro-behaviour tests of the SM: scheduler partitioning, LD/ST ordering,
gate-blocking, MSHR interplay — the details MODEL.md §3–4 promises."""

from repro.core.cta_schedulers import RoundRobinCTAScheduler
from repro.core.warp_schedulers import GTOScheduler
from repro.sim.config import GPUConfig
from repro.sim.gpu import GPU
from repro.sim.isa import alu, exit_, load
from repro.sim.warp import WarpState

from helpers import alu_program, make_test_kernel


def boot(kernel, config=None, warp_scheduler="gto"):
    """Bind + initial fill without running; returns (gpu, sm0)."""
    config = config or GPUConfig.small(num_sms=1)
    gpu = GPU(config=config, warp_scheduler=warp_scheduler)
    scheduler = RoundRobinCTAScheduler(kernel)
    gpu.cta_scheduler = scheduler
    scheduler.bind(gpu)
    scheduler.fill(0)
    return gpu, gpu.sms[0]


def fire_due(gpu, cycle):
    """What the run loop does before ``fill`` and the SM ticks: fire the
    ALU wake calendar's due wakes, then the due events."""
    gpu._drain_wakes(cycle)
    gpu.events.run_due(cycle)


class TestSchedulerPartitioning:
    def test_warps_split_round_robin_between_schedulers(self):
        kernel = make_test_kernel(num_ctas=1, warps_per_cta=4)
        gpu, sm = boot(kernel)
        cta = sm.active_ctas[0]
        owners = [warp.scheduler for warp in cta.warps]
        assert owners[0] is owners[2]
        assert owners[1] is owners[3]
        assert owners[0] is not owners[1]

    def test_issue_width_instructions_per_cycle_max(self):
        kernel = make_test_kernel(num_ctas=2, warps_per_cta=4,
                                  builder=lambda c, w: alu_program(20, 4))
        gpu, sm = boot(kernel)
        before = sm.issued
        sm.tick(0)
        assert sm.issued - before <= gpu.config.issue_width


class TestLDSTOrdering:
    def test_ldst_is_fifo(self):
        kernel = make_test_kernel(
            num_ctas=1, warps_per_cta=2,
            builder=lambda c, w: [load([w * 100]), exit_()])
        gpu, sm = boot(kernel)
        sm.tick(0)   # both warps issue their loads
        queued = [request.lines[0] for request in sm.ldst]
        assert queued == sorted(queued) or queued == [0, 100]
        # Processing order follows queue order.
        first = sm.ldst[0]
        sm.tick(1)
        assert first.accepted or first.idx > 0

    def test_one_transaction_per_cycle(self):
        kernel = make_test_kernel(
            num_ctas=1, warps_per_cta=1,
            builder=lambda c, w: [load([0, 1, 2, 3]), exit_()])
        gpu, sm = boot(kernel)
        sm.tick(0)                       # issue the load
        request = sm.ldst[0]
        for expected_idx in (1, 2, 3):
            sm.tick(expected_idx)
            assert request.idx == expected_idx


class TestGateBlocking:
    def make_mem_flood(self):
        return make_test_kernel(
            num_ctas=4, warps_per_cta=4, regs_per_thread=0,
            builder=lambda c, w: [load([(c * 4 + w) * 50 + i])
                                  for i in range(12)] + [exit_()])

    def test_gate_blocks_when_queue_full(self):
        config = GPUConfig.small(num_sms=1, ldst_queue_depth=2)
        gpu, sm = boot(self.make_mem_flood(), config)
        # Tick until the queue is full and nothing can issue.
        for cycle in range(40):
            sm.tick(cycle)
            if sm.gate_blocked:
                break
        assert sm.gate_blocked
        assert len(sm.ldst) <= 2

    def test_gate_clears_on_queue_drain(self):
        config = GPUConfig.small(num_sms=1, ldst_queue_depth=2)
        gpu, sm = boot(self.make_mem_flood(), config)
        cycle = 0
        while not sm.gate_blocked and cycle < 100:
            sm.tick(cycle)
            cycle += 1
        # Draining one transaction (an LD/ST pop) clears the gate.
        while sm.gate_blocked and cycle < 200:
            fire_due(gpu, cycle)
            sm.tick(cycle)
            cycle += 1
        assert not sm.gate_blocked or cycle < 200


class CountingGTO(GTOScheduler):
    """GTO that counts its ``pick`` calls."""

    def __init__(self):
        super().__init__()
        self.picks = 0

    def pick(self, can_issue=None):
        self.picks += 1
        return super().pick(can_issue)


class TestQueueFullMark:
    """With the LD/ST queue full, a scheduler whose pick found nothing is
    not asked again until one of its own warps becomes READY or issues."""

    def boot_split(self):
        # Warps alternate between the two schedulers: 0 and 2 on the first,
        # 1 and 3 on the second.  Warp 0's 32-line load fills the one-slot
        # queue at cycle 0 and holds it for the whole test (its L1 misses
        # exhaust the MSHRs long before a fill returns).  Warp 2's chain of
        # latency-1 ALU ops keeps the first scheduler issuing every cycle,
        # so the SM is never gate-blocked.  On the second scheduler, warp 1
        # waits to issue a load; warp 3 issues a 12-cycle ALU op at cycle
        # 0, a 4-cycle one when it wakes, then its EXIT.
        programs = {
            0: [load(range(32)), exit_()],
            1: [load([1000]), exit_()],
            2: alu_program(40, 1),
            3: [alu(12), alu(4), exit_()],
        }
        kernel = make_test_kernel(num_ctas=1, warps_per_cta=4,
                                  regs_per_thread=0,
                                  builder=lambda c, w: programs[w])
        config = GPUConfig.small(num_sms=1, issue_width=2,
                                 ldst_queue_depth=1)
        return boot(kernel, config, warp_scheduler=CountingGTO)

    def test_failed_pick_waits_for_ready_or_issue(self):
        gpu, sm = self.boot_split()
        second = sm.schedulers[1]
        warp3 = sm.active_ctas[0].warps[3]
        assert warp3.scheduler is second
        picks, marked, warp3_issues = [], [], []
        for cycle in range(20):
            fire_due(gpu, cycle)
            issued = sm.issued
            sm.tick(cycle)
            assert len(sm.ldst) == 1        # the queue stays full
            assert sm.issued > issued       # the first scheduler issues
            picks.append(second.picks)
            marked.append(second.qfull_idle)
            if warp3.last_issue == cycle:
                warp3_issues.append(cycle)
        # Cycle 0 issues warp 3; cycle 1 finds only warp 1's load and
        # marks the scheduler.  Warp 3 wakes at 12 and 16: each wake clears
        # the mark, warp 3 issues that same cycle, and the next cycle's
        # pick fails and marks again.  No other cycle calls pick.
        assert warp3_issues == [0, 12, 16]
        assert picks == [1, 2] + [2] * 10 + [3, 4, 4, 4, 5, 6, 6, 6]
        assert marked == ([False] + [True] * 11 + [False]
                          + [True] * 3 + [False] + [True] * 3)

    def test_hooks_clear_the_mark(self):
        gpu, sm = self.boot_split()
        scheduler = sm.schedulers[1]
        warp = sm.active_ctas[0].warps[1]
        scheduler.qfull_idle = True
        scheduler.on_issue(warp, 0)
        assert not scheduler.qfull_idle
        scheduler.qfull_idle = True
        scheduler.on_ready(warp)
        assert not scheduler.qfull_idle

    def test_mark_ignored_while_queue_has_room(self):
        gpu, sm = self.boot_split()
        first = sm.schedulers[0]
        first.qfull_idle = True
        sm.tick(0)                          # empty queue: warp 0 issues
        assert first.picks == 1
        assert sm.active_ctas[0].warps[0].state == WarpState.WAIT_MEM
        assert not first.qfull_idle


class TestMSHRBackpressure:
    def test_ldst_blocked_on_mshr_exhaustion(self):
        config = GPUConfig.small(num_sms=1, l1_mshr_entries=2,
                                 ldst_queue_depth=8)
        kernel = make_test_kernel(
            num_ctas=1, warps_per_cta=4, regs_per_thread=0,
            builder=lambda c, w: [load([w * 100]), exit_()])
        gpu, sm = boot(kernel, config)
        for cycle in range(10):
            sm.tick(cycle)
            if sm.ldst_blocked:
                break
        assert sm.ldst_blocked
        assert sm.l1.outstanding_misses == 2

    def test_mem_response_unblocks(self):
        config = GPUConfig.small(num_sms=1, l1_mshr_entries=2)
        kernel = make_test_kernel(
            num_ctas=1, warps_per_cta=4, regs_per_thread=0,
            builder=lambda c, w: [load([w * 100]), exit_()])
        gpu, sm = boot(kernel, config)
        for cycle in range(10):
            sm.tick(cycle)
        assert sm.ldst_blocked
        sm.mem_response(50, 0)
        assert not sm.ldst_blocked


class TestResourceRelease:
    def test_cta_completion_frees_everything(self, small_config):
        kernel = make_test_kernel(num_ctas=1, warps_per_cta=2,
                                  regs_per_thread=8, shmem_per_cta=1024)
        gpu, sm = boot(kernel, GPUConfig.small(num_sms=1))
        assert sm.used_slots == 1
        assert sm.used_warps == 2
        assert sm.used_regs == 8 * 2 * 32
        assert sm.used_shmem == 1024
        cycle = 0
        scheduler = gpu.cta_scheduler
        while not scheduler.done and cycle < 10_000:
            fire_due(gpu, cycle)
            scheduler.fill(cycle)
            sm.tick(cycle)
            cycle += 1
        assert scheduler.done
        assert sm.used_slots == 0
        assert sm.used_warps == 0
        assert sm.used_regs == 0
        assert sm.used_shmem == 0
        assert sm.kernel_active[0] == 0

    def test_warp_states_terminal(self):
        kernel = make_test_kernel(num_ctas=1, warps_per_cta=2)
        gpu, sm = boot(kernel, GPUConfig.small(num_sms=1))
        cta = sm.active_ctas[0]
        cycle = 0
        while not gpu.cta_scheduler.done and cycle < 10_000:
            fire_due(gpu, cycle)
            gpu.cta_scheduler.fill(cycle)
            sm.tick(cycle)
            cycle += 1
        assert all(warp.state == WarpState.DONE for warp in cta.warps)
