"""Tests for trace file export/import."""

import json
import re

import pytest

from repro.harness.runner import simulate
from repro.sim.config import GPUConfig
from repro.sim.isa import Op
from repro.workloads.suite import make_kernel
from repro.workloads.tracefile import load_kernel_trace, save_kernel_trace

from helpers import make_test_kernel


class TestRoundTrip:
    def test_kernel_round_trips_exactly(self, tmp_path):
        kernel = make_kernel("stencil", scale=0.02)
        path = tmp_path / "stencil.json"
        save_kernel_trace(kernel, path)
        loaded = load_kernel_trace(path)
        assert loaded.name == kernel.name
        assert loaded.num_ctas == kernel.num_ctas
        assert loaded.warps_per_cta == kernel.warps_per_cta
        assert loaded.regs_per_thread == kernel.regs_per_thread
        assert loaded.shmem_per_cta == kernel.shmem_per_cta
        assert loaded.tags == kernel.tags
        for cta_id in range(kernel.num_ctas):
            for warp_idx in range(kernel.warps_per_cta):
                assert (loaded.build_warp_program(cta_id, warp_idx)
                        == kernel.build_warp_program(cta_id, warp_idx))

    def test_loaded_kernel_simulates_identically(self, tmp_path):
        config = GPUConfig.small()
        kernel = make_kernel("kmeans", scale=0.02)
        path = tmp_path / "kmeans.json"
        save_kernel_trace(kernel, path)
        original = simulate(make_kernel("kmeans", scale=0.02), config=config)
        loaded = simulate(load_kernel_trace(path), config=config)
        assert loaded.cycles == original.cycles
        assert loaded.instructions == original.instructions

    def test_all_opcodes_survive(self, tmp_path):
        from repro.workloads.programs import TraceBuilder

        def builder(cta_id, warp_idx):
            return (TraceBuilder().alu(1, latency=5).shared(1, latency=9)
                    .load([1, 2]).store([3]).barrier().build())

        kernel = make_test_kernel(num_ctas=1, warps_per_cta=1,
                                  builder=builder)
        path = tmp_path / "ops.json"
        save_kernel_trace(kernel, path)
        program = load_kernel_trace(path).build_warp_program(0, 0)
        assert [inst.op for inst in program] == [
            Op.ALU, Op.SHARED, Op.LD_GLOBAL, Op.ST_GLOBAL, Op.BARRIER,
            Op.EXIT]
        assert program[0].latency == 5
        assert program[1].latency == 9
        assert program[2].lines == (1, 2)


class TestValidation:
    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format": "other"}))
        with pytest.raises(ValueError):
            load_kernel_trace(path)

    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format": "repro-trace", "version": 99}))
        with pytest.raises(ValueError):
            load_kernel_trace(path)

    def test_missing_warp_rejected(self, tmp_path):
        kernel = make_test_kernel(num_ctas=2, warps_per_cta=1)
        path = tmp_path / "trunc.json"
        save_kernel_trace(kernel, path)
        document = json.loads(path.read_text())
        del document["warps"]["1/0"]
        path.write_text(json.dumps(document))
        with pytest.raises(ValueError):
            load_kernel_trace(path)

    def test_unknown_opcode_rejected(self, tmp_path):
        kernel = make_test_kernel(num_ctas=1, warps_per_cta=1)
        path = tmp_path / "bad_op.json"
        save_kernel_trace(kernel, path)
        document = json.loads(path.read_text())
        document["warps"]["0/0"][0] = ["teleport"]
        path.write_text(json.dumps(document))
        with pytest.raises(ValueError):
            load_kernel_trace(path)

    def test_invalid_program_rejected(self, tmp_path):
        kernel = make_test_kernel(num_ctas=1, warps_per_cta=1)
        path = tmp_path / "no_exit.json"
        save_kernel_trace(kernel, path)
        document = json.loads(path.read_text())
        document["warps"]["0/0"] = [["alu", 2]]   # missing exit
        path.write_text(json.dumps(document))
        with pytest.raises(ValueError,
                           match=re.escape(f"{path}: warp 0/0: ")):
            load_kernel_trace(path)

    @staticmethod
    def saved_document(tmp_path):
        path = tmp_path / "k.json"
        save_kernel_trace(make_test_kernel(num_ctas=1, warps_per_cta=1), path)
        return path, json.loads(path.read_text())

    @pytest.mark.parametrize("program", [
        [["alu"], ["exit"]],
        [["ld", 5], ["exit"]],
        [5, ["exit"]],
    ], ids=["alu-without-latency", "ld-lines-not-a-list", "entry-not-a-list"])
    def test_bad_program_names_file_and_warp(self, tmp_path, program):
        path, document = self.saved_document(tmp_path)
        document["warps"]["0/0"] = program
        path.write_text(json.dumps(document))
        with pytest.raises(ValueError,
                           match=re.escape(f"{path}: warp 0/0: ")):
            load_kernel_trace(path)

    @pytest.mark.parametrize("field", ["num_ctas", "warps"])
    def test_missing_field_names_file(self, tmp_path, field):
        path, document = self.saved_document(tmp_path)
        del document[field]
        path.write_text(json.dumps(document))
        with pytest.raises(ValueError, match=re.escape(f"{path}: ")):
            load_kernel_trace(path)

    def test_top_level_list_names_file(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text(json.dumps([{"format": "repro-trace"}]))
        with pytest.raises(ValueError, match=re.escape(f"{path}: ")):
            load_kernel_trace(path)
