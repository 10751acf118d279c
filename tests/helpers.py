"""Shared tiny-kernel/program builders for the test suite."""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from types import SimpleNamespace

import pytest

from repro.harness import jobs
from repro.sim.isa import Instruction, Op
from repro.sim.kernel import Kernel


def alu_program(count: int = 10, latency: int = 2) -> list[Instruction]:
    program = [Instruction(Op.ALU, latency=latency) for _ in range(count)]
    program.append(Instruction(Op.EXIT))
    return program


def load_program(lines: list[int], alu_between: int = 0) -> list[Instruction]:
    program: list[Instruction] = []
    for line in lines:
        program.append(Instruction(Op.LD_GLOBAL, lines=(line,)))
        program.extend(Instruction(Op.ALU, latency=2)
                       for _ in range(alu_between))
    program.append(Instruction(Op.EXIT))
    return program


def usage_error(main, argv: list[str], capsys) -> str:
    """Run a CLI ``main`` that must refuse ``argv`` with exit 2 before
    it does anything; returns the refusal on stderr."""
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    return captured.err


def make_test_kernel(name: str = "test", num_ctas: int = 4,
                     warps_per_cta: int = 2, builder=None, **kwargs) -> Kernel:
    """A small kernel with a configurable program builder."""
    if builder is None:
        def builder(cta_id: int, warp_idx: int):
            return alu_program()
    kwargs.setdefault("regs_per_thread", 8)
    return Kernel(name, num_ctas, warps_per_cta, builder, **kwargs)


def count_job_work(monkeypatch) -> Counter:
    """Count, from now on, ``SimJob`` constructions (``built``) and the
    fingerprint payloads rendered to JSON (``rendered``) and hashed
    (``hashed``)."""
    counts: Counter = Counter()

    def counted(key, function):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return function(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(jobs.SimJob, "__post_init__",
                        counted("built", jobs.SimJob.__post_init__))
    monkeypatch.setattr(jobs, "json",
                        SimpleNamespace(dumps=counted("rendered", json.dumps)))
    monkeypatch.setattr(jobs, "hashlib", SimpleNamespace(
        sha256=counted("hashed", hashlib.sha256)))
    return counts
