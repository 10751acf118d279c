"""Tests for LCS: decision rules, monitor, scheduler behaviour."""

import pytest

from repro.core.lcs import (LCSMonitor, LCSScheduler, decide_n_star,
                            decide_n_star_coverage, decide_n_star_tail,
                            decide_n_star_threshold)
from repro.harness.runner import simulate
from repro.sim.config import GPUConfig
from repro.sim.isa import Instruction, Op, alu, exit_
from repro.workloads.suite import make_kernel

from helpers import make_test_kernel


class TestTailRule:
    def test_flat_runner_ups_keep_occupancy(self):
        assert decide_n_star_tail([1000, 500, 490, 480, 470], 0.5, 8) == 5

    def test_cliff_throttles(self):
        assert decide_n_star_tail([1000, 800, 700, 50, 10, 5], 0.5, 8) == 3

    def test_single_count_keeps_occupancy(self):
        assert decide_n_star_tail([1000], 0.5, 8) == 8

    def test_zero_tail_gives_one(self):
        assert decide_n_star_tail([1000, 0, 0], 0.5, 8) == 1

    def test_clamped_to_occupancy(self):
        assert decide_n_star_tail([10, 9, 9, 9], 0.5, 2) == 2

    def test_invalid_ratio(self):
        with pytest.raises(ValueError):
            decide_n_star_tail([1, 2], 0.0, 4)


class TestCoverageRule:
    def test_full_coverage_needs_all(self):
        assert decide_n_star_coverage([100, 100, 100, 100], 1.0, 8) == 4

    def test_half_coverage(self):
        assert decide_n_star_coverage([100, 100, 100, 100], 0.5, 8) == 2

    def test_heavy_head(self):
        assert decide_n_star_coverage([900, 50, 25, 25], 0.9, 8) == 1

    def test_empty_counts_keep_occupancy(self):
        assert decide_n_star_coverage([], 0.9, 8) == 8

    def test_zero_counts_keep_occupancy(self):
        assert decide_n_star_coverage([0, 0], 0.9, 8) == 8

    def test_invalid_coverage(self):
        with pytest.raises(ValueError):
            decide_n_star_coverage([1], 1.5, 4)


class TestThresholdRule:
    def test_counts_above_fraction_of_max(self):
        assert decide_n_star_threshold([100, 60, 30, 5], 0.5, 8) == 2

    def test_never_below_one(self):
        assert decide_n_star_threshold([100, 0, 0], 0.99, 8) == 1

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            decide_n_star_threshold([1], 0.0, 4)


class TestDispatch:
    def test_dispatch_by_rule_name(self):
        counts = [1000, 800, 700, 50]
        assert decide_n_star(counts, 8, rule="tail") == \
            decide_n_star_tail(counts, 0.5, 8)
        assert decide_n_star(counts, 8, rule="coverage", param=0.9) == \
            decide_n_star_coverage(counts, 0.9, 8)

    def test_unknown_rule_rejected(self):
        with pytest.raises(ValueError):
            decide_n_star([1], 4, rule="magic")


class TestMonitor:
    def test_invalid_rule_rejected(self):
        with pytest.raises(ValueError):
            LCSMonitor(rule="nope")

    def test_invalid_guard_rejected(self):
        with pytest.raises(ValueError):
            LCSMonitor(util_guard=2.0)


def _cache_thrash_kernel(num_ctas=24, seed_salt=""):
    """Per-warp private random footprints: 2 CTAs fit the small L1."""
    import numpy as np

    def builder(cta_id, warp_idx):
        rng = np.random.default_rng(cta_id * 13 + warp_idx)
        owner = cta_id * 2 + warp_idx
        program = []
        for off in rng.integers(0, 8, size=30):
            program.append(Instruction(Op.LD_GLOBAL,
                                       lines=(owner * 8 + int(off),)))
            program.append(alu(2))
        program.append(exit_())
        return program

    return make_test_kernel(name="thrash" + seed_salt, num_ctas=num_ctas,
                            warps_per_cta=2, builder=builder,
                            regs_per_thread=0)


class TestLCSEndToEnd:
    def test_monitoring_produces_decision(self, small_config):
        kernel = _cache_thrash_kernel()
        scheduler = LCSScheduler(kernel)
        result = simulate(kernel, config=small_config,
                          cta_scheduler=scheduler)
        decision = scheduler.decision
        assert decision is not None
        assert 1 <= decision.n_star <= decision.occupancy
        assert decision.issue_counts == tuple(
            sorted(decision.issue_counts, reverse=True))
        assert result.meta["lcs_decision"] is decision

    def test_limits_snapshot_shows_n_star(self, small_config):
        kernel = _cache_thrash_kernel()
        scheduler = LCSScheduler(kernel)
        result = simulate(kernel, config=small_config,
                          cta_scheduler=scheduler)
        assert set(result.cta_limits.values()) == {scheduler.decision.n_star}

    def test_all_ctas_complete_under_throttling(self, small_config):
        kernel = _cache_thrash_kernel()
        scheduler = LCSScheduler(kernel, rule="threshold", param=0.9)
        result = simulate(kernel, config=small_config,
                          cta_scheduler=scheduler)
        assert result.kernel(kernel.name).finish_cycle is not None

    def test_barrier_kernel_trips_barrier_guard(self, small_config):
        from repro.sim.isa import barrier
        # Heavy barrier phasing with a memory access per phase: the issue
        # signature looks cliff-shaped but must not be trusted.
        def builder(cta_id, warp_idx):
            program = []
            for step in range(8):
                program.append(Instruction(
                    Op.LD_GLOBAL, lines=(cta_id * 64 + step * 4 + warp_idx,)))
                program.append(alu(2))
                program.append(barrier())
            program.append(exit_())
            return program

        kernel = make_test_kernel(name="phased", num_ctas=24,
                                  warps_per_cta=2, builder=builder,
                                  regs_per_thread=0)
        scheduler = LCSScheduler(kernel)
        simulate(kernel, config=small_config, cta_scheduler=scheduler)
        decision = scheduler.decision
        assert decision.barriers_per_warp >= decision.barrier_guard
        assert decision.guard_reason == "barriers"
        # The decision fell back to the coverage rule on the same counts.
        from repro.core.lcs import DEFAULT_COVERAGE
        assert decision.n_star == decide_n_star_coverage(
            decision.issue_counts, DEFAULT_COVERAGE, decision.occupancy)

    def test_invalid_barrier_guard_rejected(self):
        with pytest.raises(ValueError):
            LCSMonitor(barrier_guard=-1.0)

    def test_compute_kernel_trips_guard(self, small_config):
        kernel = make_test_kernel(
            name="hot", num_ctas=16, warps_per_cta=4,
            builder=lambda c, w: [alu(1)] * 60 + [exit_()],
            regs_per_thread=0)
        scheduler = LCSScheduler(kernel)
        simulate(kernel, config=small_config, cta_scheduler=scheduler)
        decision = scheduler.decision
        assert decision.guard_tripped
        assert decision.n_star == decision.occupancy

    def test_rejects_multiple_kernels(self):
        with pytest.raises(ValueError):
            LCSScheduler([make_test_kernel(name="a"),
                          make_test_kernel(name="b")])

    def test_lcs_beats_baseline_on_cache_sensitive_suite_kernel(self):
        # The headline behaviour at reduced scale on the real config.
        config = GPUConfig()
        base = simulate(make_kernel("kmeans", scale=0.25), config=config)
        kernel = make_kernel("kmeans", scale=0.25)
        scheduler = LCSScheduler(kernel)
        lcs = simulate(kernel, config=config, cta_scheduler=scheduler)
        assert scheduler.decision.throttled
        assert lcs.cycles <= base.cycles * 1.02
