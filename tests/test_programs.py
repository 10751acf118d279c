"""Tests for the trace builder."""

import pytest

from repro.sim.isa import (ColumnProgram, Instruction, Op, alu, barrier,
                           exit_, load, program_columns, shared, store)
from repro.workloads.programs import (TraceBuilder, instruction_mix,
                                      memory_intensity)


class TestTraceBuilder:
    def test_fluent_chain_builds_valid_program(self):
        program = (TraceBuilder().alu(2).load(5).barrier().store([6, 7])
                   .shared().build())
        assert program[-1].op is Op.EXIT
        assert [i.op for i in program[:-1]] == [
            Op.ALU, Op.ALU, Op.LD_GLOBAL, Op.BARRIER, Op.ST_GLOBAL, Op.SHARED]

    def test_default_latencies(self):
        program = TraceBuilder(alu_latency=7, shared_latency=33) \
            .alu().shared().build()
        assert program[0].latency == 7
        assert program[1].latency == 33

    def test_latency_override(self):
        program = TraceBuilder(alu_latency=4).alu(1, latency=9).build()
        assert program[0].latency == 9

    def test_int_line_accepted(self):
        program = TraceBuilder().load(3).store(4).build()
        assert program[0].lines == (3,)
        assert program[1].lines == (4,)

    def test_load_each_interleaves_alu(self):
        program = TraceBuilder().load_each([1, 2], alu_between=2).build()
        ops = [i.op for i in program[:-1]]
        assert ops == [Op.LD_GLOBAL, Op.ALU, Op.ALU,
                       Op.LD_GLOBAL, Op.ALU, Op.ALU]

    def test_build_once(self):
        builder = TraceBuilder().alu()
        builder.build()
        with pytest.raises(RuntimeError):
            builder.build()

    def test_len_counts_instructions(self):
        builder = TraceBuilder().alu(3)
        assert len(builder) == 3

    def test_load_strided_unit_stride_one_line(self):
        program = TraceBuilder().load_strided(0, 1).build()
        assert program[0].lines == (0,)

    def test_load_strided_scatter(self):
        program = TraceBuilder().load_strided(0, 32).build()
        assert len(program[0].lines) == 32

    def test_load_strided_partial_warp(self):
        program = TraceBuilder().load_strided(0, 8, lanes=4).build()
        assert len(program[0].lines) == 1

    def test_invalid_latencies_rejected(self):
        with pytest.raises(ValueError):
            TraceBuilder(alu_latency=0)


class TestAnalysis:
    def test_instruction_mix(self):
        program = TraceBuilder().alu(2).load(1).build()
        mix = instruction_mix(program)
        assert mix == {"ALU": 2, "LD_GLOBAL": 1, "EXIT": 1}

    def test_memory_intensity(self):
        program = TraceBuilder().alu(2).load(1).store(2).build()
        # 2 memory instructions out of 5 total (incl. EXIT).
        assert memory_intensity(program) == pytest.approx(2 / 5)

    def test_memory_intensity_empty(self):
        assert memory_intensity([]) == 0.0


class TestColumnProgram:
    """``TraceBuilder`` and ``program_columns`` produce the same columns,
    and the row view reads them back exactly."""

    @staticmethod
    def built():
        return (TraceBuilder(alu_latency=3, shared_latency=30)
                .alu(2).alu(1, latency=9).shared().shared(1, latency=40)
                .load([1, 2]).load_strided(0, 8, lanes=8)
                .load_each([10, 11], alu_between=1)
                .store(7).barrier().build())

    @staticmethod
    def rows():
        return [alu(3), alu(3), alu(9), shared(30), shared(40),
                load([1, 2]), load([0, 1]),
                load([10]), alu(3), load([11]), alu(3),
                store([7]), barrier(), exit_()]

    def test_builder_equals_converted_rows(self):
        built = self.built()
        expected = program_columns(self.rows())
        assert isinstance(built, ColumnProgram)
        assert built.ops == expected.ops
        assert built.lat == expected.lat
        assert built.lines == expected.lines
        assert built == expected

    def test_row_view(self):
        program, rows = self.built(), self.rows()
        assert len(program) == len(rows)
        assert program[0] == rows[0]
        assert program[5] == Instruction(Op.LD_GLOBAL, lines=(1, 2))
        assert program[-1].op is Op.EXIT
        assert program[-3] == rows[-3]
        assert program[5:8] == rows[5:8]
        assert program[::-2] == rows[::-2]
        assert list(program) == rows
        with pytest.raises(IndexError):
            program[len(rows)]

    @pytest.mark.parametrize("row", [
        store([0, 1]),
        Instruction(Op.LD_GLOBAL, latency=2, lines=(0, 1)),
        load([0, 2]),
    ], ids=["op", "latency", "lines"])
    def test_one_field_of_one_row_breaks_equality(self, row):
        rows = self.rows()
        rows[6] = row
        other = program_columns(rows)
        assert self.built() != other
        assert not self.built() == other
