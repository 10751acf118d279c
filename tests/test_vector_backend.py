"""Object-vs-vector backend parity: the bitwise contract, tested directly.

The vector backend (:mod:`repro.sim.vector`) is only allowed to exist
because it reproduces the object core exactly.  These tests enforce that
contract head-on:

* the pinned 12-cell cross-check matrix (every supported warp scheduler x
  every paper-relevant CTA policy, plus the multi-kernel cell) runs on
  both backends and must diff clean on every leaf of ``to_dict()``;
* telemetry riders (timeline window + trace) must match bitwise too —
  parity covers all three drift lanes, not just headline stats;
* the ``repro-verify`` parity layer (:mod:`repro.verify.backends`) is
  exercised for matrix construction, sweep verdicts and its guard rails.
"""

from dataclasses import replace

import pytest

from repro.harness.jobs import SimJob
from repro.sim.config import GPUConfig
from repro.sim.vector import (VECTOR_WARP_SCHEDULERS, VectorBackendError,
                              ensure_numpy, vector_supported)
from repro.verify.backends import (ParityReport, ParityVerdict,
                                   parity_matrix, verify_backends)
from repro.verify.golden import (GoldenCell, GoldenError, canonical_result,
                                 diff_paths, golden_matrix)
from repro.verify.refmodel import crosscheck_matrix

SMALL = GPUConfig.small()


def _job_label(job):
    policy = "+".join(str(p) for p in job.policy if p is not None)
    return f"{'+'.join(job.names)}-{policy}-{job.warp}"


CROSSCHECK = crosscheck_matrix()

#: DynCTA cells where the vector core once woke L1-hit and store warps
#: (WAIT_MEM -> READY) before a DynCTA sample due in the same cycle, which
#: counts WAIT_MEM warps: srad lost a quota decrement and finished 2048
#: cycles early, kmeans kept one CTA more on SM 10.
DYNCTA_CELLS = [
    pytest.param(SimJob(names=(name,), scale=0.05, warp="gto",
                        policy=("dyncta",), seed=seed, config=config),
                 id=f"dyncta-{name}-{label}-{seed}")
    for name, label, config, seeds in (("srad", "small", SMALL, (1, 2, 3)),
                                       ("kmeans", "default", GPUConfig(), (2,)))
    for seed in seeds]


# --------------------------------------------------------------------------- #
# the pinned cross-check matrix, object vs vector
# --------------------------------------------------------------------------- #

class TestCrosscheckParity:
    def test_matrix_is_the_pinned_twelve_cells(self):
        # The parity sweep below only means something if the matrix keeps
        # its breadth: every supported warp x policy pairing present.
        assert len(CROSSCHECK) == 12
        assert all(vector_supported(job.warp) for job in CROSSCHECK)

    @pytest.mark.parametrize("job", CROSSCHECK + DYNCTA_CELLS, ids=_job_label)
    def test_vector_matches_object_bitwise(self, job):
        obj = replace(job, backend="object").execute().to_dict()
        vec = replace(job, backend="vector").execute().to_dict()
        diffs = diff_paths(canonical_result(obj), canonical_result(vec))
        assert not diffs, (
            f"{_job_label(job)}: vector backend diverged from the object "
            f"core at {len(diffs)} leaf path(s); first: {diffs[:3]}")


class TestTelemetryParity:
    def test_timeline_and_trace_lanes_match(self):
        # Riders exercise the windowed-timeline and event-trace paths the
        # headline stats never touch.
        job = SimJob(names=("kmeans",), scale=0.05, warp="gto",
                     policy=("lcs",), config=SMALL, timeline_window=200,
                     trace=True)
        obj = replace(job, backend="object").execute().to_dict()
        vec = replace(job, backend="vector").execute().to_dict()
        assert obj["meta"].get("timeline"), "rider did not produce a timeline"
        assert diff_paths(canonical_result(obj), canonical_result(vec)) == []


# --------------------------------------------------------------------------- #
# capability surface
# --------------------------------------------------------------------------- #

class TestCapability:
    def test_supported_set_is_the_pinned_three(self):
        assert VECTOR_WARP_SCHEDULERS == {"lrr", "gto", "baws"}

    @pytest.mark.parametrize("warp", sorted(VECTOR_WARP_SCHEDULERS))
    def test_supported_warps(self, warp):
        assert vector_supported(warp)

    @pytest.mark.parametrize("warp", ["two-level", "swl", "nope"])
    def test_unsupported_warps(self, warp):
        assert not vector_supported(warp)

    def test_non_string_descriptors_are_object_only(self):
        # Instantiated scheduler objects carry state the vector core
        # cannot adopt; only string descriptors qualify.
        assert not vector_supported(object())

    def test_ensure_numpy_passes_here(self):
        # The test environment has numpy; the actionable-error branch is
        # covered by the error-message contract below.
        ensure_numpy()

    def test_backend_not_fingerprint_relevant(self):
        job = CROSSCHECK[0]
        assert (replace(job, backend="vector").fingerprint()
                == replace(job, backend="object").fingerprint())

    def test_simjob_rejects_unknown_backend(self):
        with pytest.raises(Exception):
            SimJob(names=("kmeans",), scale=0.05, config=SMALL,
                   backend="quantum")

    def test_vector_gpu_rejects_unsupported_scheduler(self):
        from repro.sim.vector import VectorGPU
        with pytest.raises(VectorBackendError):
            VectorGPU(config=SMALL, warp_scheduler="two-level")

    def test_capacity_refusal_names_what_selects_the_object_core(
            self, monkeypatch):
        # No CLI has a --backend flag; the refusal names the argument that
        # still picks the core.
        from repro.harness.runner import simulate
        from repro.sim.vector import core
        from repro.workloads.suite import make_kernel
        monkeypatch.setattr(core, "MAX_CTA_SEQ", 1)
        with pytest.raises(VectorBackendError) as excinfo:
            simulate(make_kernel("kmeans", scale=0.02), config=SMALL,
                     backend="vector")
        message = str(excinfo.value)
        assert 'backend="object"' in message
        assert "--backend" not in message


# --------------------------------------------------------------------------- #
# the repro-verify parity layer
# --------------------------------------------------------------------------- #

class TestParityLayer:
    def test_parity_matrix_filters_object_only_cells(self):
        full = golden_matrix("smoke")
        cells = parity_matrix("smoke")
        assert 0 < len(cells) < len(full) or all(
            vector_supported(c.job.warp) for c in full)
        assert all(vector_supported(c.job.warp) for c in cells)
        assert {c.label for c in cells} <= {c.label for c in full}

    def test_verify_backends_ok_on_parity_cells(self):
        cells = [GoldenCell("cell-a",
                            SimJob(names=("kmeans",), scale=0.05,
                                   warp="gto", policy=("rr",),
                                   config=SMALL))]
        report = verify_backends(cells)
        assert isinstance(report, ParityReport)
        assert report.ok
        assert report.count("ok") == 1
        assert "1 ok" in report.summary_line()
        verdict = report.verdicts[0]
        assert verdict.status == "ok"
        assert verdict.to_record()["kind"] == "backend"

    def test_verify_backends_rejects_unsupported_cells(self):
        cells = [GoldenCell("cell-a",
                            SimJob(names=("kmeans",), scale=0.05,
                                   warp="two-level", policy=("rr",),
                                   config=SMALL))]
        with pytest.raises(GoldenError, match="vector backend"):
            verify_backends(cells)

    def test_verify_backends_rejects_duplicate_labels(self):
        cell = GoldenCell("cell-a",
                          SimJob(names=("kmeans",), scale=0.05,
                                 warp="gto", policy=("rr",), config=SMALL))
        with pytest.raises(GoldenError, match="duplicate"):
            verify_backends([cell, cell])

    def test_diff_verdict_renders_lanes_and_paths(self):
        verdict = ParityVerdict(
            "cell-a", "f" * 12, "diff", lanes=["stats"],
            diffs={"stats": [("cycles", 10, 11)]})
        record = verdict.to_record()
        assert record["status"] == "diff"
        assert record["diffs"]["stats"] == [
            {"path": "cycles", "object": 10, "vector": 11}]
