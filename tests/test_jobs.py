"""Tests for the declarative job layer (repro.harness.jobs)."""

import pickle
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bcs import BCSScheduler
from repro.core.lcs import LCSScheduler
from repro.harness.jobs import (JobError, SimJob, build_policy,
                                build_warp_scheduler, validate_policy,
                                validate_warp)
from repro.sim.config import GPUConfig
from repro.workloads.suite import SUITE, make_kernel

from helpers import count_job_work

SMALL = GPUConfig.small()

#: Random job descriptors (keyword arguments of ``SimJob``).
DESCRIPTORS = st.fixed_dictionaries({
    "names": st.lists(st.sampled_from(sorted(SUITE)), min_size=1,
                      max_size=2).map(tuple),
    "scale": st.sampled_from((0.02, 0.1, 0.5, 1.0)),
    "seed": st.integers(0, 2 ** 31),
    "warp": st.sampled_from(("lrr", "gto", "baws", "two-level", ("swl", 4))),
    "policy": st.sampled_from((("rr",), ("static", 2), ("lcs",),
                               ("lcs", "tail", 0.5), ("bcs", 2, None),
                               ("dyncta",))),
    "config": st.sampled_from((GPUConfig(), SMALL)),
    "timeline_window": st.none() | st.integers(1, 5000),
    "trace": st.booleans(),
})


class TestValidation:
    def test_unknown_benchmark_rejected(self):
        with pytest.raises(JobError):
            SimJob(names=("warp_drive",))

    def test_unknown_benchmark_in_pair_rejected(self):
        with pytest.raises(JobError):
            SimJob(names=("kmeans", "warp_drive"))

    def test_empty_names_rejected(self):
        with pytest.raises(JobError):
            SimJob(names=())

    def test_scale_mults_length_mismatch_rejected(self):
        with pytest.raises(JobError):
            SimJob(names=("kmeans",), scale_mults=(1.0, 2.0))

    def test_unknown_policy_kind_rejected(self):
        with pytest.raises(JobError):
            SimJob(names=("kmeans",), policy=("warp_drive",))

    def test_policy_arity_rejected(self):
        with pytest.raises(JobError):
            SimJob(names=("kmeans",), policy=("static",))

    def test_unknown_warp_scheduler_rejected(self):
        with pytest.raises(JobError):
            SimJob(names=("kmeans",), warp="warp_drive")

    def test_swl_tuple_warp_accepted(self):
        job = SimJob(names=("kmeans",), warp=("swl", 6))
        assert job.warp == ("swl", 6)
        factory = build_warp_scheduler(job.warp)
        assert factory().warp_limit == 6

    def test_joberror_is_valueerror(self):
        # Callers that guarded with ValueError keep working.
        with pytest.raises(ValueError):
            validate_policy(("warp_drive",))
        with pytest.raises(ValueError):
            validate_warp("warp_drive")

    def test_bare_lcs_descriptor_builds(self):
        kernel = make_kernel("kmeans", scale=0.05)
        policy = build_policy(("lcs",), [kernel])
        assert isinstance(policy, LCSScheduler)

    def test_bcs_descriptor_builds_with_block_size(self):
        kernel = make_kernel("stencil", scale=0.05)
        policy = build_policy(("bcs", 3, None), [kernel])
        assert isinstance(policy, BCSScheduler)
        assert policy.block_size == 3


class TestFingerprint:
    def test_deterministic(self):
        a = SimJob(names=("kmeans",), scale=0.1)
        b = SimJob(names=("kmeans",), scale=0.1)
        assert a.fingerprint() == b.fingerprint()

    @pytest.mark.parametrize("kwargs", [
        {"scale": 0.2},
        {"seed": 7},
        {"warp": "lrr"},
        {"warp": ("swl", 4)},
        {"policy": ("lcs",)},
        {"policy": ("static", 2)},
        {"config": SMALL},
        {"names": ("kmeans", "compute")},
    ])
    def test_any_input_changes_fingerprint(self, kwargs):
        base = SimJob(names=("kmeans",), scale=0.1)
        changed = SimJob(**{"names": ("kmeans",), "scale": 0.1, **kwargs})
        assert base.fingerprint() != changed.fingerprint()

    def test_scale_mults_change_fingerprint(self):
        base = SimJob(names=("kmeans", "compute"))
        changed = SimJob(names=("kmeans", "compute"), scale_mults=(1.0, 2.0))
        assert base.fingerprint() != changed.fingerprint()

    def test_version_salt_changes_fingerprint(self, monkeypatch):
        job = SimJob(names=("kmeans",), scale=0.1)
        before = job.fingerprint()
        monkeypatch.setattr("repro.harness.jobs.SIM_VERSION", 999)
        assert job.fingerprint() != before

    def test_payload_rendered_and_hashed_once_per_job(self, monkeypatch):
        counts = count_job_work(monkeypatch)
        job = SimJob(names=("kmeans",), scale=0.1)
        first = job.fingerprint()
        assert [job.fingerprint() for _ in range(3)] == [first] * 3
        assert counts["rendered"] == counts["hashed"] == 1

    def test_memo_is_not_part_of_the_job(self):
        job = SimJob(names=("kmeans",), scale=0.1)
        before = (repr(job), hash(job), job.to_payload())
        job.fingerprint()
        assert (repr(job), hash(job), job.to_payload()) == before
        assert job == SimJob(names=("kmeans",), scale=0.1)

    @settings(max_examples=60, deadline=None)
    @given(DESCRIPTORS, DESCRIPTORS)
    def test_memoised_fingerprint_equals_a_fresh_jobs(self, first, second):
        # The memoised job, a pickled copy and a dataclasses.replace copy
        # against freshly built jobs.
        job = SimJob(**first)
        job.fingerprint()
        assert job.fingerprint() == SimJob(**first).fingerprint()
        assert pickle.loads(pickle.dumps(job)).fingerprint() \
            == SimJob(**first).fingerprint()
        # scale_mults was normalised to the first job's names: reset it.
        assert replace(job, scale_mults=None, **second).fingerprint() \
            == SimJob(**second).fingerprint()


class TestExecute:
    def test_execute_matches_direct_simulate(self):
        from repro.harness.runner import simulate

        job = SimJob(names=("kmeans",), scale=0.05, policy=("static", 2),
                     config=SMALL)
        via_job = job.execute()
        kernel = make_kernel("kmeans", scale=0.05)
        from repro.core.cta_schedulers import StaticLimitCTAScheduler
        direct = simulate(kernel, config=SMALL,
                          cta_scheduler=StaticLimitCTAScheduler(
                              kernel, limit_per_sm=2))
        assert via_job == direct

    def test_scale_mults_scale_individual_kernels(self):
        job = SimJob(names=("kmeans", "kmeans"), scale=0.1,
                     scale_mults=(1.0, 2.0))
        first, second = job.build_kernels()
        assert second.num_ctas > first.num_ctas
