"""Tests for the windowed occupancy timeline (``TimelineResult``)."""

import pytest

from repro.core.cta_schedulers import RoundRobinCTAScheduler
from repro.core.lcs import LCSScheduler
from repro.harness.runner import simulate
from repro.sim.config import GPUConfig
from repro.telemetry import TelemetryError, TelemetryHub
from repro.workloads.suite import make_kernel

from helpers import make_test_kernel


def run_with_timeline(kernel, config, scheduler=None, window=50):
    result = simulate(kernel, config=config,
                      cta_scheduler=(scheduler if scheduler is not None
                                     else RoundRobinCTAScheduler(kernel)),
                      telemetry=TelemetryHub(window=window, trace=False))
    return result, result.meta["timeline"]


class TestSampler:
    def test_period_validated(self):
        with pytest.raises(TelemetryError):
            TelemetryHub(window=0)

    def test_samples_are_periodic_and_ordered(self, small_config):
        kernel = make_test_kernel(num_ctas=16, warps_per_cta=4)
        result, timeline = run_with_timeline(kernel, small_config)
        assert timeline, "no windows collected"
        cycles = timeline.cycles
        assert cycles == sorted(set(cycles))
        # Every boundary but the flushed final one is a window multiple;
        # the final one is the run's last cycle.
        assert all(c % 50 == 0 for c in cycles[:-1])
        assert cycles[-1] == result.cycles

    def test_issued_counts_monotonic(self, small_config):
        kernel = make_test_kernel(num_ctas=16, warps_per_cta=4)
        result, timeline = run_with_timeline(kernel, small_config)
        starts = [0] + timeline.cycles[:-1]
        issued = [ipc * (end - start) for ipc, start, end
                  in zip(timeline.series("ipc"), starts, timeline.cycles)]
        assert all(count >= 0 for count in issued)
        assert sum(issued) == pytest.approx(result.instructions)

    def test_occupancy_bounded_by_hardware(self, small_config):
        kernel = make_test_kernel(num_ctas=32, warps_per_cta=1,
                                  regs_per_thread=0)
        result, timeline = run_with_timeline(kernel, small_config)
        limit = kernel.max_ctas_per_sm(small_config)
        assert len(timeline.ctas_per_sm) == len(timeline)
        for row in timeline.ctas_per_sm:
            assert len(row) == small_config.num_sms
            assert all(0 <= ctas <= limit for ctas in row)

    def test_ipc_series_matches_samples(self, small_config):
        kernel = make_test_kernel(num_ctas=8, warps_per_cta=4)
        result, timeline = run_with_timeline(kernel, small_config)
        assert len(timeline.series("ipc")) == len(timeline)
        assert all(ipc >= 0 for ipc in timeline.series("ipc"))

    def test_lcs_drain_visible_in_occupancy_series(self):
        """After the LCS decision the resident CTA count drains to N*."""
        config = GPUConfig(num_sms=4)
        kernel = make_kernel("kmeans", scale=0.15)
        scheduler = LCSScheduler(kernel)
        result, timeline = run_with_timeline(kernel, config, scheduler,
                                             window=500)
        decision = scheduler.decision
        assert decision is not None and decision.throttled
        before = [max(row) for cycle, row
                  in zip(timeline.cycles, timeline.ctas_per_sm)
                  if cycle <= decision.decided_cycle]
        after = [max(row) for cycle, row
                 in zip(timeline.cycles, timeline.ctas_per_sm)
                 if cycle > decision.decided_cycle]
        assert max(before) == decision.occupancy
        assert decision.n_star in after, "no window shows the drained SMs"
        # Once drained, no SM is refilled above N*.
        drained = after.index(decision.n_star)
        assert all(ctas <= decision.n_star for ctas in after[drained:])
