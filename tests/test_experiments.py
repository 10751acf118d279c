"""Tests for the experiment drivers (tiny scale: mechanics, not shapes)."""

import inspect
import time

import pytest

from repro.design import Design
from repro.harness.experiments import (EXPERIMENTS, ExperimentContext,
                                       e1_occupancy_sweep, e2_issue_signature,
                                       e3_lcs_speedup, e4_lcs_vs_oracle,
                                       e5_warp_schedulers, e6_bcs, e7_bcs_l1,
                                       e8_cke, e12_benchmark_table,
                                       e12_config_table, plan_experiments,
                                       run_experiment)
from repro.sim.config import GPUConfig
from repro.verify.tables import TABLE_SCALE
from repro.workloads.suite import LCS_SET, MOTIVATION_SET, SUITE

from helpers import count_job_work

TINY = 0.02   # a handful of CTAs per kernel: fast, exercises all code paths


@pytest.fixture(scope="module")
def ctx():
    return ExperimentContext(scale=TINY)


class TestContext:
    def test_run_is_memoised(self, ctx):
        a = ctx.run("compute")
        b = ctx.run("compute")
        assert a is b

    def test_distinct_policies_not_conflated(self, ctx):
        a = ctx.run("compute", policy=("static", 1))
        b = ctx.run("compute", policy=("static", 2))
        assert a is not b

    def test_unknown_policy_rejected(self, ctx):
        with pytest.raises(ValueError):
            ctx.run("compute", policy=("bogus",))

    def test_oracle_best_within_sweep(self, ctx):
        best, run = ctx.oracle_best("kmeans")
        assert 1 <= best <= ctx.occupancy("kmeans")
        assert run.cycles > 0

    def test_engine_lane_runs_batches_one_after_another(self):
        # Each batch times its events from its own start; the lane puts
        # them all on the first batch's clock.
        ctx = ExperimentContext(scale=TINY, config=GPUConfig.small())
        ctx.prefetch([ctx.job("kmeans")])
        time.sleep(0.5)
        ctx.prefetch([ctx.job("streaming")])
        lane = ctx.engine_events()
        assert [event["kind"] for event in lane] \
            == ["batch.start", "batch.end"] * 2
        assert lane[2]["t"] >= lane[1]["t"] + 0.5


class TestDrivers:
    """The drivers on the session's planned table context: each reads
    only the cells its design declares, so none adds an engine batch."""

    @pytest.fixture
    def planned(self, table_context):
        batches = len(table_context.reports)
        yield table_context
        assert len(table_context.reports) == batches

    def test_every_driver_takes_only_the_context(self):
        for driver in [*EXPERIMENTS.values(), e12_config_table,
                       e12_benchmark_table]:
            assert list(inspect.signature(driver).parameters) == ["ctx"], \
                driver.__name__

    def test_e1_rows_and_normalisation(self, planned):
        table = e1_occupancy_sweep(planned)
        assert [row[0] for row in table.rows] == list(MOTIVATION_SET)
        for row in table.rows:
            max_n = row[-1]
            # The max-occupancy column is 1.0 by construction.
            assert row[max_n] == pytest.approx(1.0)

    def test_e2_shares_normalised(self, planned):
        table = e2_issue_signature(planned)
        shares = [v for v in table.row_for("kmeans")[1:-1] if v != "-"]
        assert max(shares) == pytest.approx(1.0)
        assert all(0 <= s <= 1 for s in shares)

    def test_e3_has_gmean_row(self, planned):
        table = e3_lcs_speedup(planned)
        assert table.rows[-1][0] == "GMEAN"
        assert len(table.rows) == len(LCS_SET) + 1

    def test_e4_reports_both_choices(self, planned):
        table = e4_lcs_vs_oracle(planned)
        row = table.row_for("kmeans")
        occupancy = row[1]
        assert 1 <= row[2] <= occupancy
        assert 1 <= row[3] <= occupancy
        assert row[3] == planned.oracle_best("kmeans")[0]

    def test_e5_ratio_consistency(self, planned):
        table = e5_warp_schedulers(planned)
        row = table.row_for("compute")
        assert row[3] > 0

    def test_e6_and_e7_cover_locality_set(self, planned):
        speedups = e6_bcs(planned)
        misses = e7_bcs_l1(planned)
        assert speedups.row_for("stencil")
        assert 0 <= misses.row_for("stencil")[1] <= 1

    def test_e8_runs_one_pair(self, planned):
        table = e8_cke(planned)
        row = table.row_for("kmeans+blackscholes")
        assert row[1] > 0          # sequential cycles
        for value in row[2:5]:
            assert value > 0       # speedups

    def test_e12_tables(self, planned):
        config_table = e12_config_table(planned)
        assert config_table.row_for("SIMT cores")[1] == 15
        bench_table = e12_benchmark_table(planned)
        assert len(bench_table.rows) == len(SUITE)

    def test_run_experiment_by_id(self, planned):
        table = run_experiment("e5", planned)
        assert table.rows

    def test_run_experiment_unknown_id(self):
        with pytest.raises(ValueError):
            run_experiment("e99")

    def test_run_experiment_e12_redirects(self):
        with pytest.raises(ValueError):
            run_experiment("e12")

    def test_registry_complete(self):
        expected = ({f"e{i}" for i in range(1, 12)}
                    | {f"e{i}" for i in range(13, 23)})
        assert set(EXPERIMENTS) == expected


class TestJobWork:
    def test_plan_then_driver_builds_and_fingerprints_each_job_once(
            self, monkeypatch):
        counts = count_job_work(monkeypatch)
        ctx = ExperimentContext(scale=TABLE_SCALE, jobs=1)
        planned = plan_experiments(ctx, ["e5"])
        table = e5_warp_schedulers(ctx)
        assert table.rows[-1][0] == "GMEAN" and len(ctx._results) == planned
        assert counts["built"] == planned
        assert counts["hashed"] == planned

    def test_drivers_on_other_hardware_reuse_the_plan(self, monkeypatch):
        # E19 reads Kepler-class cells: planning it and E5 and then running
        # both drivers compiles each design once and builds each job once.
        counts = count_job_work(monkeypatch)
        compile_design = Design.compile

        def counted_compile(design, env=None):
            counts["compiled"] += 1
            return compile_design(design, env)

        monkeypatch.setattr(Design, "compile", counted_compile)
        ctx = ExperimentContext(scale=TABLE_SCALE, jobs=1)
        planned = plan_experiments(ctx, ["e5", "e19"])
        EXPERIMENTS["e5"](ctx)
        EXPERIMENTS["e19"](ctx)
        assert counts["compiled"] == 2
        assert counts["built"] == counts["hashed"] == planned
        assert len(ctx.reports) == 1

    def test_job_and_occupancy_come_from_one_env(self):
        ctx = ExperimentContext(scale=TINY)
        assert ctx.job("kmeans") is ctx.job("kmeans")
        assert ctx.job("kmeans") is ctx.design_env().job(("kmeans",))
        assert ctx.design_env() is ctx.design_env()
        assert ctx.occupancy("kmeans") == ctx.kernel("kmeans").max_ctas_per_sm(
            ctx.config)
        mshr64 = ctx.config.with_overrides(l1_mshr_entries=64)
        assert ctx.job("kmeans", config=mshr64) is ctx.design_env().job(
            ("kmeans",), config=mshr64)
        assert ctx.job("kmeans", config=mshr64).config == mshr64
        kepler = GPUConfig.kepler_class()
        assert ctx.occupancy("kmeans", kepler) == ctx.kernel(
            "kmeans").max_ctas_per_sm(kepler)
