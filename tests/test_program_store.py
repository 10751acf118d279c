"""The per-process program store of suite kernels.

``make_kernel`` gives every kernel of one (factory, scale, seed) one
:class:`~repro.sim.kernel.ProgramStore`, kept in an LRU of
``PROGRAM_STORES`` identities; ``Kernel.build_warp_program`` returns a
stored program instead of building it again.  Kernels built any other way
have no store and build every program they are asked for.
"""

from __future__ import annotations

import pytest

from repro.harness.jobs import SimJob, build_policy, build_warp_scheduler
from repro.harness.runner import simulate
from repro.sim.checkpoint import CheckpointRecorder, Snapshot
from repro.sim.config import GPUConfig
from repro.sim.kernel import Kernel
from repro.workloads import suite
from repro.workloads.fuzz import random_kernel
from repro.workloads.programs import TraceBuilder
from repro.workloads.suite import SUITE, make_kernel
from repro.workloads.tracefile import load_kernel_trace, save_kernel_trace

SCALE = 0.05
SMALL = GPUConfig.small()


@pytest.fixture(autouse=True)
def empty_stores():
    suite._program_store.cache_clear()
    yield
    suite._program_store.cache_clear()


def counting(kernel: Kernel) -> list[tuple[int, int]]:
    """Record every call of ``kernel``'s builder in the returned list."""
    calls: list[tuple[int, int]] = []
    builder = kernel._builder

    def counted(cta_id: int, warp_idx: int):
        calls.append((cta_id, warp_idx))
        return builder(cta_id, warp_idx)

    kernel._builder = counted
    return calls


def warps(kernel: Kernel) -> list[tuple[int, int]]:
    """First, middle and last CTA, first and last warp."""
    ctas = sorted({0, kernel.num_ctas // 2, kernel.num_ctas - 1})
    return [(c, w) for c in ctas
            for w in sorted({0, kernel.warps_per_cta - 1})]


@pytest.mark.parametrize("name", sorted(SUITE))
def test_a_hit_equals_a_fresh_build(name):
    raw = SUITE[name].make(scale=SCALE)
    assert raw.program_store is None
    first = make_kernel(name, scale=SCALE)
    for cta_id, warp_idx in warps(first):
        first.build_warp_program(cta_id, warp_idx)
    second = make_kernel(name, scale=SCALE)
    assert second is not first
    assert second.program_store is first.program_store
    calls = counting(second)
    for cta_id, warp_idx in warps(second):
        hit = second.build_warp_program(cta_id, warp_idx)
        assert hit is second.program_store.programs[(cta_id, warp_idx)]
        assert hit == raw.build_warp_program(cta_id, warp_idx)
    assert calls == []


def test_stored_programs_share_interned_columns():
    kernel = make_kernel("compute", scale=SCALE)
    programs = [kernel.build_warp_program(c, w) for c, w in warps(kernel)]
    assert len({id(p.ops) for p in programs}) == 1
    assert len({id(p.lat) for p in programs}) == 1
    assert len({p.lines for p in programs}) == len(programs)


def test_a_miss_is_range_checked_and_checked_once():
    kernel = make_kernel("kmeans", scale=SCALE)
    with pytest.raises(ValueError, match="cta_id"):
        kernel.build_warp_program(kernel.num_ctas, 0)
    with pytest.raises(ValueError, match="warp_idx"):
        kernel.build_warp_program(0, kernel.warps_per_cta)
    assert kernel.program_store.programs == {}
    calls = counting(kernel)
    first = kernel.build_warp_program(0, 0)
    assert kernel.build_warp_program(0, 0) is first
    assert calls == [(0, 0)]


def test_the_lru_holds_at_most_two_identities():
    assert suite.PROGRAM_STORES == 2
    identities = [("kmeans", SCALE, 1), ("spmv", SCALE, 1),
                  ("kmeans", SCALE, 2), ("kmeans", 0.06, 1),
                  ("spmv", SCALE, 1)]
    stores = []
    for name, scale, seed in identities:
        kernel = make_kernel(name, scale=scale, seed=seed)
        kernel.build_warp_program(0, 0)
        stores.append(kernel.program_store)
        assert suite._program_store.cache_info().currsize <= 2
    # spmv was evicted before it came back, so it has a new store.
    assert len({id(store) for store in stores}) == 5
    # The two most recent identities are still held.
    assert make_kernel("spmv", scale=SCALE, seed=1).program_store is stores[4]
    assert make_kernel("kmeans", scale=0.06, seed=1).program_store is stores[3]


def test_a_kernel_named_twice_in_a_cke_job_shares_one_store():
    job = SimJob(names=("kmeans", "kmeans"), scale=SCALE,
                 policy=("mixed", "tail", None), config=SMALL)
    first, second = job.build_kernels()
    assert first is not second
    assert first.program_store is second.program_store
    other = SimJob(names=("kmeans", "kmeans"), scale=SCALE,
                   scale_mults=(1.0, 2.0), policy=("mixed", "tail", None),
                   config=SMALL).build_kernels()
    assert other[0].program_store is first.program_store
    assert other[1].program_store is not first.program_store


def _builds_every_call(kernel: Kernel) -> None:
    assert kernel.program_store is None
    calls = counting(kernel)
    first = kernel.build_warp_program(0, 0)
    assert kernel.build_warp_program(0, 0) == first
    assert calls == [(0, 0), (0, 0)]


def test_a_trace_file_kernel_builds_every_call(tmp_path):
    path = tmp_path / "kmeans.json"
    save_kernel_trace(make_kernel("kmeans", scale=SCALE), path)
    _builds_every_call(load_kernel_trace(path))


def test_a_fuzzer_kernel_builds_every_call():
    _builds_every_call(random_kernel(seed=7))


def test_a_hand_written_kernel_builds_every_call():
    def build(cta_id: int, warp_idx: int):
        return TraceBuilder().alu(2).load(cta_id * 4 + warp_idx).build()

    kernel = Kernel("hand", 2, 2, build)
    _builds_every_call(kernel)
    # A fresh object per call: a builder's programs are not shared.
    assert kernel.build_warp_program(1, 1) is not kernel.build_warp_program(1, 1)


def test_resume_with_a_warm_store_matches_a_fresh_run():
    job = SimJob(names=("kmeans",), scale=SCALE, policy=("lcs",),
                 config=SMALL)
    reference = job.execute().to_dict()           # builds every program
    suite._program_store.cache_clear()

    snapshots: list[Snapshot] = []
    recorder = CheckpointRecorder(
        2000, lambda snapshot: bool(snapshots.append(snapshot)) or True)
    kernels = job.build_kernels()
    checkpointed = simulate(kernels, config=SMALL,
                            warp_scheduler=build_warp_scheduler(job.warp),
                            cta_scheduler=build_policy(job.policy, kernels),
                            checkpoint=recorder)
    assert checkpointed.to_dict() == reference
    assert len(snapshots) >= 2
    store = kernels[0].program_store
    assert len(store.programs) == kernels[0].num_ctas * kernels[0].warps_per_cta
    for snapshot in (snapshots[0], snapshots[-1]):
        resumed_kernels = job.build_kernels()
        assert resumed_kernels[0].program_store is store   # warm
        calls = counting(resumed_kernels[0])
        resumed = simulate(resumed_kernels, resume_from=snapshot)
        assert resumed.to_dict() == reference
        assert calls == []
