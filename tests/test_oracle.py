"""Tests for the exhaustive static-limit oracle."""

import pytest

from repro.core.oracle import sweep_static_limits
from repro.harness.experiments import ExperimentContext
from repro.sim.config import GPUConfig
from repro.workloads.suite import make_kernel

from helpers import make_test_kernel


@pytest.fixture
def config():
    return GPUConfig.small()


class TestSweep:
    def test_sweeps_all_feasible_limits(self, config):
        kernel = make_test_kernel(num_ctas=8, warps_per_cta=1,
                                  regs_per_thread=0)
        oracle = sweep_static_limits(kernel, config=config)
        assert set(oracle.results) == {1, 2, 3, 4}
        assert oracle.occupancy == 4

    def test_best_limit_minimises_cycles(self, config):
        kernel = make_test_kernel(num_ctas=8, warps_per_cta=1,
                                  regs_per_thread=0)
        oracle = sweep_static_limits(kernel, config=config)
        best_cycles = oracle.best.cycles
        assert all(best_cycles <= r.cycles for r in oracle.results.values())

    def test_best_speedup_vs_max_occupancy(self, config):
        kernel = make_test_kernel(num_ctas=8, warps_per_cta=1,
                                  regs_per_thread=0)
        oracle = sweep_static_limits(kernel, config=config)
        assert oracle.best_speedup >= 1.0
        assert oracle.baseline is oracle.results[oracle.occupancy]

    def test_custom_limits_clamped_and_baseline_added(self, config):
        kernel = make_test_kernel(num_ctas=8, warps_per_cta=1,
                                  regs_per_thread=0)
        oracle = sweep_static_limits(kernel, config=config, limits=[1, 99])
        # 99 clamps to occupancy (4); baseline always present.
        assert set(oracle.results) == {1, 4}

    def test_invalid_limits_rejected(self, config):
        kernel = make_test_kernel()
        with pytest.raises(ValueError):
            sweep_static_limits(kernel, config=config, limits=[0])

    def test_ipc_by_limit_sorted(self, config):
        kernel = make_test_kernel(num_ctas=4, warps_per_cta=1,
                                  regs_per_thread=0)
        oracle = sweep_static_limits(kernel, config=config, limits=[2, 1])
        assert list(oracle.ipc_by_limit()) == sorted(oracle.results)

    def test_compute_kernel_prefers_more_ctas(self, config):
        # Pure ALU work scales with parallelism: max occupancy never loses.
        kernel = make_test_kernel(num_ctas=16, warps_per_cta=2,
                                  regs_per_thread=0)
        oracle = sweep_static_limits(kernel, config=config)
        assert oracle.best.cycles <= oracle.results[1].cycles


class TestEngineSweep:
    def test_engine_sweep_agrees_with_the_in_process_oracle(self, config):
        # A suite kernel's static sweep runs as engine jobs, here one
        # batch on two workers; it must rank the limits exactly as the
        # serial in-process oracle does.
        ctx = ExperimentContext(scale=0.05, config=config, jobs=2)
        ctx.prefetch(ctx.job("kmeans", policy=("static", limit))
                     for limit in range(1, ctx.occupancy("kmeans") + 1))
        oracle = sweep_static_limits(make_kernel("kmeans", scale=0.05),
                                     config=config)
        best, run = ctx.oracle_best("kmeans")
        assert (best, run.cycles) == (oracle.best_limit, oracle.best.cycles)
        assert {limit: result.cycles for limit, result
                in ctx.static_sweep("kmeans").items()} \
            == {limit: result.cycles for limit, result
                in oracle.results.items()}
        assert len(ctx.reports) == 1     # the reads ran nothing more
