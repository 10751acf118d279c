"""Tests for the benchmark suite definitions."""

import pytest

from repro.sim.config import GPUConfig
from repro.sim.isa import Op
from repro.workloads.programs import memory_intensity
from repro.workloads.suite import (CKE_PAIRS, LCS_SET, LOCALITY_SET,
                                   MOTIVATION_SET, SUITE, make_kernel,
                                   suite_names)


class TestRegistry:
    def test_suite_has_twenty_two_benchmarks(self):
        assert len(SUITE) == 22

    def test_core_set_is_fifteen(self):
        from repro.workloads.suite import CORE_SET
        assert len(CORE_SET) == 15
        assert all(name in SUITE for name in CORE_SET)

    def test_all_names_resolvable(self):
        for name in SUITE:
            kernel = make_kernel(name, scale=0.05)
            assert kernel.name == name

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError):
            make_kernel("nope")

    def test_category_filter(self):
        assert set(suite_names("locality")) == set(LOCALITY_SET)
        with pytest.raises(ValueError):
            suite_names("bogus")

    def test_curated_sets_are_suite_members(self):
        for name in LCS_SET + LOCALITY_SET + MOTIVATION_SET:
            assert name in SUITE
        for mem_name, compute_name, mult in CKE_PAIRS:
            assert mem_name in SUITE
            assert compute_name in SUITE
            assert mult > 0


class TestKernelWellFormedness:
    @pytest.mark.parametrize("name", sorted(SUITE))
    def test_every_warp_program_valid_and_fits(self, name):
        config = GPUConfig()
        kernel = make_kernel(name, scale=0.05)
        assert kernel.max_ctas_per_sm(config) >= 1
        # Spot-check a few warps across the grid.
        for cta_id in {0, kernel.num_ctas // 2, kernel.num_ctas - 1}:
            for warp_idx in range(kernel.warps_per_cta):
                program = kernel.build_warp_program(cta_id, warp_idx)
                assert program[-1].op is Op.EXIT

    @pytest.mark.parametrize("name", sorted(SUITE))
    def test_programs_deterministic(self, name):
        # make_kernel's kernels share stored programs; the raw factory's
        # kernel has no store, so this compares two separate builds.
        a = SUITE[name].make(scale=0.05).build_warp_program(1, 0)
        b = make_kernel(name, scale=0.05).build_warp_program(1, 0)
        assert a is not b
        assert a == b

    def test_scale_changes_grid_size_only(self):
        small = make_kernel("kmeans", scale=0.1)
        large = make_kernel("kmeans", scale=1.0)
        assert large.num_ctas > small.num_ctas
        assert small.warps_per_cta == large.warps_per_cta
        assert small.build_warp_program(0, 0) == large.build_warp_program(0, 0)

    def test_zero_scale_rejected(self):
        with pytest.raises(ValueError):
            make_kernel("kmeans", scale=0)


class TestSignatures:
    def test_compute_kernels_are_compute_bound(self):
        for name in ("compute", "blackscholes"):
            program = make_kernel(name, scale=0.05).build_warp_program(0, 0)
            assert memory_intensity(program) < 0.1

    def test_memory_kernels_are_memory_heavy(self):
        for name in ("kmeans", "streaming", "spmv"):
            program = make_kernel(name, scale=0.05).build_warp_program(0, 0)
            assert memory_intensity(program) > 0.2

    def test_locality_kernels_share_halo_lines(self):
        for name in LOCALITY_SET:
            kernel = make_kernel(name, scale=0.05)
            lines = set()
            for warp_idx in range(kernel.warps_per_cta):
                for inst in kernel.build_warp_program(0, warp_idx):
                    if inst.op is Op.LD_GLOBAL:
                        lines.update(inst.lines)
            neighbour = set()
            for warp_idx in range(kernel.warps_per_cta):
                for inst in kernel.build_warp_program(1, warp_idx):
                    if inst.op is Op.LD_GLOBAL:
                        neighbour.update(inst.lines)
            assert lines & neighbour, f"{name}: no inter-CTA sharing"

    def test_distinct_kernels_use_distinct_regions(self):
        seen: dict[str, set] = {}
        for name in ("kmeans", "streaming", "compute", "blackscholes"):
            kernel = make_kernel(name, scale=0.05)
            lines = set()
            for inst in kernel.build_warp_program(0, 0):
                lines.update(inst.lines)
            seen[name] = lines
        names = list(seen)
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                assert not seen[a] & seen[b], f"{a} and {b} overlap"

    def test_barrier_counts_uniform_within_cta(self):
        # Barrier semantics require every warp of a CTA to hit the same
        # number of barriers.
        for name in sorted(SUITE):
            kernel = make_kernel(name, scale=0.05)
            counts = set()
            for warp_idx in range(kernel.warps_per_cta):
                program = kernel.build_warp_program(0, warp_idx)
                counts.add(sum(1 for inst in program
                               if inst.op is Op.BARRIER))
            assert len(counts) == 1, f"{name}: uneven barrier counts"
