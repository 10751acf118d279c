"""Direct unit tests for Warp/CTA/MemRequest state containers."""

from repro.core.cta_schedulers import RoundRobinCTAScheduler
from repro.sim.config import GPUConfig
from repro.sim.gpu import GPU
from repro.sim.warp import MemRequest

from helpers import make_test_kernel


def dispatched_cta(config=None, **kernel_kwargs):
    """Dispatch one CTA onto a real SM and return it."""
    config = config or GPUConfig.small()
    kernel = make_test_kernel(**kernel_kwargs)
    gpu = GPU(config=config)
    scheduler = RoundRobinCTAScheduler(kernel)
    scheduler.bind(gpu)
    scheduler.fill(0)
    return gpu.sms[0].active_ctas[0]


class TestWarp:
    def test_initial_state(self):
        cta = dispatched_cta()
        warp = cta.warps[0]
        assert warp.is_ready
        assert not warp.done
        assert warp.pc == 0
        assert warp.age_key == (cta.seq, 0)

    def test_repr(self):
        warp = dispatched_cta().warps[0]
        assert "READY" in repr(warp)


class TestMemRequest:
    def make_request(self, lines=(1, 2), is_store=False):
        warp = dispatched_cta().warps[0]
        return MemRequest(warp, tuple(lines), is_store=is_store)

    def test_load_completion_needs_acceptance_and_data(self):
        request = self.make_request()
        assert not request.complete
        request.accepted = True
        assert request.complete          # no outstanding misses
        request.outstanding = 1
        assert not request.complete

    def test_store_completes_on_acceptance(self):
        request = self.make_request(is_store=True)
        request.outstanding = 5          # irrelevant for stores
        request.accepted = True
        assert request.complete


class TestCTA:
    def test_counts_and_lifetime(self):
        cta = dispatched_cta(warps_per_cta=2)
        assert cta.num_warps == 2
        assert cta.live_warps == 2
        assert not cta.complete
        assert cta.lifetime is None
        cta.done_warps = 2
        assert cta.complete
        cta.complete_cycle = 50
        assert cta.lifetime == 50 - cta.dispatch_cycle

    def test_kernel_accessor(self):
        cta = dispatched_cta()
        assert cta.kernel.name == "test"

    def test_repr(self):
        assert "sm=0" in repr(dispatched_cta())

    def test_issue_counter_starts_zero(self):
        assert dispatched_cta().issued_instrs == 0
