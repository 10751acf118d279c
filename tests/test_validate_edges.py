"""Edge-case coverage for the validation layer.

Three under-tested surfaces, per ISSUE 5's satellite list: run-result
invariant violations (``harness/validate.py``), unknown scheduler names
and out-of-range config fields (the paths ``validate_run``'s callers go
through), and conflicting/invalid CLI flag combinations.
"""

import copy

import pytest

from helpers import usage_error
from repro.harness.cli import main as exp_main
from repro.harness.jobs import (JobError, SimJob, build_warp_scheduler,
                                validate_policy, validate_warp)
from repro.harness.runner import simulate
from repro.harness.validate import RunValidationError, validate_run
from repro.sim.config import GPUConfig
from repro.verify.cli import main as verify_main
from repro.workloads.suite import make_kernel

SMALL = GPUConfig.small()


@pytest.fixture(scope="module")
def clean_result():
    return simulate(make_kernel("kmeans", scale=0.05), config=SMALL)


def _tampered(result):
    return copy.deepcopy(result)


# --------------------------------------------------------------------------- #
# validate_run
# --------------------------------------------------------------------------- #

class TestValidateRunEdges:
    def test_clean_run_passes(self, clean_result):
        validate_run(clean_result)

    def test_zero_cycles_rejected(self, clean_result):
        bad = _tampered(clean_result)
        bad.cycles = 0
        with pytest.raises(RunValidationError, match="no cycles"):
            validate_run(bad)

    def test_per_sm_sum_mismatch(self, clean_result):
        bad = _tampered(clean_result)
        bad.issued_by_sm[0] += 1
        with pytest.raises(RunValidationError, match="per-SM"):
            validate_run(bad)

    def test_unfinished_kernel_rejected(self, clean_result):
        bad = _tampered(clean_result)
        next(iter(bad.kernels.values())).finish_cycle = None
        with pytest.raises(RunValidationError, match="unfinished"):
            validate_run(bad)

    def test_per_kernel_sum_mismatch(self, clean_result):
        bad = _tampered(clean_result)
        next(iter(bad.kernels.values())).instructions += 1
        with pytest.raises(RunValidationError, match="per-kernel"):
            validate_run(bad)

    def test_negative_wait_integral_rejected(self, clean_result):
        bad = _tampered(clean_result)
        next(iter(bad.kernels.values())).mem_wait = -1
        with pytest.raises(RunValidationError, match="negative mem_wait"):
            validate_run(bad)

    def test_cache_counter_imbalance(self, clean_result):
        bad = _tampered(clean_result)
        bad.l1.hits += 1
        with pytest.raises(RunValidationError,
                           match="hits \\+ misses \\+ merges"):
            validate_run(bad)

    def test_demand_conservation_l1_l2(self, clean_result):
        bad = _tampered(clean_result)
        bad.l2.accesses += 1
        with pytest.raises(RunValidationError, match="L2"):
            validate_run(bad)

    def test_dram_read_conservation(self, clean_result):
        bad = _tampered(clean_result)
        bad.dram.reads += 1
        with pytest.raises(RunValidationError, match="DRAM"):
            validate_run(bad)


# --------------------------------------------------------------------------- #
# unknown scheduler names
# --------------------------------------------------------------------------- #

class TestUnknownSchedulers:
    def test_unknown_warp_name(self):
        with pytest.raises(JobError, match="unknown warp"):
            validate_warp("fifo")

    def test_malformed_swl_tuple(self):
        with pytest.raises(JobError, match="swl"):
            validate_warp(("swl", "eight"))

    def test_unknown_policy_kind(self):
        with pytest.raises(JobError, match="unknown policy"):
            validate_policy(("round-robin-2",))

    def test_wrong_policy_arity(self):
        with pytest.raises(JobError, match="argument"):
            validate_policy(("bcs",))   # bcs needs (granularity, limit)

    def test_job_constructor_rejects_unknown_warp(self):
        with pytest.raises(JobError):
            SimJob(names=("kmeans",), warp="fifo", config=SMALL)

    def test_build_warp_scheduler_unknown_factory(self):
        with pytest.raises((JobError, ValueError, KeyError)):
            build_warp_scheduler("fifo")

    def test_unknown_benchmark_name(self):
        with pytest.raises(JobError, match="unknown benchmark"):
            SimJob(names=("matmul-9000",), config=SMALL)


# --------------------------------------------------------------------------- #
# out-of-range config fields
# --------------------------------------------------------------------------- #

class TestConfigRanges:
    @pytest.mark.parametrize("field", ["num_sms", "max_ctas_per_sm",
                                       "issue_width", "l1_mshr_entries",
                                       "dram_channels"])
    def test_zero_rejected_for_required_positive_fields(self, field):
        with pytest.raises(ValueError):
            GPUConfig(**{field: 0})

    def test_icnt_bw_zero_is_allowed(self):
        # Explicitly zero-OK: models an unlimited interconnect.
        GPUConfig(icnt_bw_per_direction=0)

    def test_max_warps_below_max_ctas_rejected(self):
        with pytest.raises(ValueError):
            GPUConfig(max_ctas_per_sm=8, max_warps_per_sm=4)

    def test_issue_width_above_max_warps_rejected(self):
        with pytest.raises(ValueError):
            GPUConfig(issue_width=64, max_warps_per_sm=48)

    def test_indivisible_cache_geometry_rejected(self):
        with pytest.raises(ValueError):
            GPUConfig(l1_size=1000)   # not divisible into lines/sets


# --------------------------------------------------------------------------- #
# conflicting / invalid CLI flag combinations
# --------------------------------------------------------------------------- #

class TestCliFlagConflicts:
    def test_negative_jobs_rejected(self, capsys):
        usage_error(exp_main, ["e5", "--jobs", "-1"], capsys)

    def test_zero_checkpoint_interval_rejected(self, capsys):
        usage_error(exp_main, ["e5", "--checkpoint-interval", "0"], capsys)

    def test_fail_fast_keep_going_last_wins(self, capsys):
        # Not an error: the flags negate each other, last one wins.
        assert exp_main(["e5", "--scale", "0.02", "--no-cache",
                         "--fail-fast", "--keep-going"]) == 0

    def test_clean_state_supersedes_clear_cache(self, tmp_path, capsys,
                                                monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert exp_main(["--clean-state", "--clear-cache"]) == 0
        err = capsys.readouterr().err
        assert "checkpoints cleared" in err
        assert "warning" not in err

    def test_clear_cache_warns_about_leftover_checkpoints(
            self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        ckpt_dir = tmp_path / ".repro-checkpoints"
        ckpt_dir.mkdir()
        (ckpt_dir / "deadbeef.000000001000.ckpt").write_bytes(b"x")
        assert exp_main(["--clear-cache"]) == 0
        assert "checkpoint file(s) remain" in capsys.readouterr().err

    def test_verify_zero_cases_rejected(self, capsys):
        usage_error(verify_main, ["fuzz", "--cases", "0"], capsys)

    def test_verify_zero_window_rejected(self, capsys):
        usage_error(verify_main, ["refmodel", "--window", "0"], capsys)

    def test_verify_all_zero_cases_rejected(self, capsys):
        usage_error(verify_main, ["all", "--cases", "0"], capsys)

    @pytest.mark.parametrize("argv, message", [
        (["golden", "--jobs", "-1"], "--jobs must be >= 0, got -1"),
        (["backend", "-j", "-1"], "-j must be >= 0, got -1"),
        (["all", "--jobs", "-1"], "--jobs must be >= 0, got -1"),
        (["fuzz", "--seed", "-5"], "--seed must be >= 0, got -5"),
        (["all", "--seed", "-5"], "--seed must be >= 0, got -5"),
        (["fuzz", "--cases", "0"], "--cases must be >= 1, got 0"),
        (["all", "--cases", "0"], "--cases must be >= 1, got 0"),
        (["refmodel", "--window", "0"], "--window must be >= 1 cycle, got 0"),
        (["all", "--window", "0"], "--window must be >= 1 cycle, got 0"),
    ])
    def test_verify_ranged_options_refused(self, capsys, argv, message):
        # --jobs 0/-1 used to end in a run_batch traceback, and a
        # negative --seed in a numpy one.
        assert message in usage_error(verify_main, argv, capsys)

    @pytest.mark.parametrize("command", ["golden", "backend", "all"])
    def test_verify_jobs_zero_is_one_worker_per_core(self, command):
        from repro.harness.engine import default_workers
        from repro.verify.cli import build_parser

        args = build_parser().parse_args([command, "--jobs", "0"])
        assert args.jobs == default_workers() >= 1
