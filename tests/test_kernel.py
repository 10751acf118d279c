"""Unit tests for Kernel description and occupancy arithmetic."""

import pytest

from repro.harness.runner import simulate
from repro.sim.config import GPUConfig
from repro.sim.isa import ColumnProgram, Instruction, Op, alu
from repro.sim.kernel import KernelResourceError

from helpers import alu_program, make_test_kernel

#: Malformed warp programs, as opcode lists.
BAD_OPS = {
    "empty": [],
    "no-final-exit": [Op.ALU, Op.ALU],
    "exit-before-end": [Op.ALU, Op.EXIT, Op.ALU, Op.EXIT],
}


def instruction_rows(ops):
    return [Instruction(op, latency=2) for op in ops]


def column_rows(ops):
    return ColumnProgram(bytes(ops), (2,) * len(ops), ((),) * len(ops))


bad_programs = pytest.mark.parametrize(
    "ops", list(BAD_OPS.values()), ids=list(BAD_OPS))
both_forms = pytest.mark.parametrize("form", [instruction_rows, column_rows])


class TestConstruction:
    def test_rejects_zero_ctas(self):
        with pytest.raises(ValueError):
            make_test_kernel(num_ctas=0)

    def test_rejects_zero_warps(self):
        with pytest.raises(ValueError):
            make_test_kernel(warps_per_cta=0)

    def test_rejects_negative_resources(self):
        with pytest.raises(ValueError):
            make_test_kernel(regs_per_thread=-1)

    def test_repr_mentions_name(self):
        assert "test" in repr(make_test_kernel())


class TestProgramBuilding:
    def test_builds_and_validates(self):
        kernel = make_test_kernel()
        program = kernel.build_warp_program(0, 0)
        assert program[-1].op is Op.EXIT

    def test_invalid_builder_output_rejected(self):
        kernel = make_test_kernel(builder=lambda c, w: [alu()])  # no EXIT
        with pytest.raises(ValueError):
            kernel.build_warp_program(0, 0)

    @bad_programs
    @both_forms
    def test_malformed_program_rejected(self, ops, form):
        kernel = make_test_kernel(builder=lambda c, w: form(ops))
        with pytest.raises(ValueError, match="EXIT|empty"):
            kernel.build_warp_program(0, 0)

    @bad_programs
    @both_forms
    @pytest.mark.parametrize("backend", ["object", "vector"])
    def test_simulate_rejects_malformed_program(self, ops, form, backend):
        kernel = make_test_kernel(num_ctas=1, warps_per_cta=1,
                                  builder=lambda c, w: form(ops))
        with pytest.raises(ValueError, match="EXIT|empty"):
            simulate(kernel, config=GPUConfig.small(), backend=backend)

    def test_column_lengths_must_agree(self):
        program = ColumnProgram(bytes([Op.ALU, Op.EXIT]), (2,), ((), ()))
        kernel = make_test_kernel(builder=lambda c, w: program)
        with pytest.raises(ValueError, match="length"):
            kernel.build_warp_program(0, 0)

    def test_out_of_range_ids_rejected(self):
        kernel = make_test_kernel(num_ctas=2, warps_per_cta=2)
        with pytest.raises(ValueError):
            kernel.build_warp_program(2, 0)
        with pytest.raises(ValueError):
            kernel.build_warp_program(0, 2)

    def test_builder_receives_ids(self):
        seen = []

        def builder(cta_id, warp_idx):
            seen.append((cta_id, warp_idx))
            return alu_program()

        kernel = make_test_kernel(builder=builder)
        kernel.build_warp_program(3, 1)
        assert seen == [(3, 1)]


class TestOccupancy:
    def test_cta_slot_limit(self):
        config = GPUConfig()
        kernel = make_test_kernel(warps_per_cta=1, regs_per_thread=0)
        assert kernel.max_ctas_per_sm(config) == config.max_ctas_per_sm

    def test_warp_limit(self):
        config = GPUConfig()   # 48 warps
        kernel = make_test_kernel(warps_per_cta=12, regs_per_thread=0)
        assert kernel.max_ctas_per_sm(config) == 4

    def test_register_limit(self):
        config = GPUConfig()   # 32768 regs
        # 64 regs x 4 warps x 32 lanes = 8192 regs per CTA -> 4 CTAs.
        kernel = make_test_kernel(warps_per_cta=4, regs_per_thread=64)
        assert kernel.max_ctas_per_sm(config) == 4

    def test_shared_memory_limit(self):
        config = GPUConfig()   # 48 KB
        kernel = make_test_kernel(warps_per_cta=1, regs_per_thread=0,
                                  shmem_per_cta=16384)
        assert kernel.max_ctas_per_sm(config) == 3

    def test_unfittable_kernel_raises(self):
        config = GPUConfig()
        kernel = make_test_kernel(shmem_per_cta=config.shared_mem_per_sm + 1)
        with pytest.raises(KernelResourceError):
            kernel.max_ctas_per_sm(config)

    def test_breakdown_reports_each_resource(self):
        config = GPUConfig()
        kernel = make_test_kernel(warps_per_cta=4, regs_per_thread=64,
                                  shmem_per_cta=8192)
        breakdown = kernel.occupancy_breakdown(config)
        assert breakdown["registers"] == 4
        assert breakdown["shared_mem"] == 6
        assert breakdown["warps"] == 12
        assert kernel.max_ctas_per_sm(config) == min(breakdown.values())

    def test_regs_per_cta(self):
        config = GPUConfig()
        kernel = make_test_kernel(warps_per_cta=2, regs_per_thread=10)
        assert kernel.regs_per_cta(config) == 10 * 2 * 32
