"""Tests for the configuration-sweep utility."""

import pytest

from repro.harness.sweeps import config_sweep
from repro.sim.config import GPUConfig


SMALL = GPUConfig.small()


class TestConfigSweep:
    def test_rows_per_value(self):
        table = config_sweep("kmeans", "l1_size", [4096, 8192],
                             base_config=SMALL, scale=0.03)
        assert len(table.rows) == 2
        assert table.column("l1_size") == [4096, 8192]

    def test_larger_l1_does_not_hurt(self):
        table = config_sweep("kmeans", "l1_size", [4096, 16384],
                             base_config=SMALL, scale=0.05)
        small_ipc, big_ipc = table.column("ipc_ipc")
        assert big_ipc >= small_ipc * 0.98

    def test_multiple_policies_and_best_column(self):
        table = config_sweep("kmeans", "l1_mshr_entries", [8],
                             base_config=SMALL, scale=0.03,
                             policies={"base": ("rr",),
                                       "limit1": ("static", 1)})
        assert "best_policy" in table.columns
        assert table.rows[0][-1] in ("base", "limit1")

    def test_repeated_value_reads_its_one_cell(self):
        # The design keeps one cell per distinct (value, policy); a
        # repeated value reads that cell's result in every row.
        table = config_sweep("kmeans", "l1_mshr_entries", [8, 8],
                             base_config=SMALL, scale=0.05)
        assert table.column("l1_mshr_entries") == [8, 8]
        assert table.rows[0] == table.rows[1]

    def test_repeated_policy_reads_its_one_cell(self):
        table = config_sweep("kmeans", "l1_mshr_entries", [8, 16],
                             base_config=SMALL, scale=0.05,
                             policies={"a": ("rr",), "b": ("rr",)})
        assert len(table.rows) == 2
        assert table.column("a_ipc") == table.column("b_ipc")

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError):
            config_sweep("kmeans", "warp_drive", [1], base_config=SMALL)

    def test_empty_values_rejected(self):
        with pytest.raises(ValueError):
            config_sweep("kmeans", "l1_size", [], base_config=SMALL)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            config_sweep("kmeans", "l1_size", [4096], base_config=SMALL,
                         scale=0.03, policies={"x": ("bcs", 2)})

    def test_unknown_warp_scheduler_rejected(self):
        # Regression: the sweep used to hand the string straight to
        # simulate(), so a typo surfaced mid-sweep (or not at all) instead
        # of failing up front with the engine's uniform descriptor error.
        from repro.harness.jobs import JobError
        with pytest.raises(JobError):
            config_sweep("kmeans", "l1_size", [4096], base_config=SMALL,
                         scale=0.03, warp_scheduler="gtoo")

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(ValueError):
            config_sweep("warp_drive", "l1_size", [4096], base_config=SMALL,
                         scale=0.03)
