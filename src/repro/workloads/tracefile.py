"""Trace file import/export.

Lets downstream users bring their *own* kernels to the simulator without
writing Python builders: a kernel is serialised as a JSON document holding
its launch geometry, resources and per-warp instruction traces, and loaded
back as a regular :class:`~repro.sim.kernel.Kernel`.

Format (version 1)::

    {
      "format": "repro-trace",
      "version": 1,
      "name": "mykernel",
      "num_ctas": 4,
      "warps_per_cta": 2,
      "regs_per_thread": 20,
      "shmem_per_cta": 0,
      "tags": ["custom"],
      "warps": {
        "0/0": [["alu", 4], ["ld", [0, 1]], ["bar"], ["st", [5]], ["exit"]],
        ...
      }
    }

Instruction encodings: ``["alu", latency]``, ``["shared", latency]``,
``["ld", [lines...]]``, ``["st", [lines...]]``, ``["bar"]``, ``["exit"]``.
Every (cta, warp) pair must be present.  Loading checks each warp's program
and converts it to column form once; a malformed file raises ``ValueError``
naming the file (and the ``cta/warp`` key of a bad program).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Sequence

from ..sim.isa import ColumnProgram, Instruction, Op, program_columns
from ..sim.kernel import Kernel

FORMAT_NAME = "repro-trace"
FORMAT_VERSION = 1

#: Fields a trace file must carry besides ``format`` and ``version``.
_REQUIRED = ("name", "num_ctas", "warps_per_cta", "warps")

_ENCODE = {
    Op.ALU: lambda inst: ["alu", inst.latency],
    Op.SHARED: lambda inst: ["shared", inst.latency],
    Op.LD_GLOBAL: lambda inst: ["ld", list(inst.lines)],
    Op.ST_GLOBAL: lambda inst: ["st", list(inst.lines)],
    Op.BARRIER: lambda inst: ["bar"],
    Op.EXIT: lambda inst: ["exit"],
}


def _encode_instruction(inst: Instruction) -> list:
    return _ENCODE[inst.op](inst)


def _decode_instruction(entry: Sequence) -> Instruction:
    if not entry:
        raise ValueError("empty instruction entry")
    kind = entry[0]
    if kind == "alu":
        return Instruction(Op.ALU, latency=int(entry[1]))
    if kind == "shared":
        return Instruction(Op.SHARED, latency=int(entry[1]))
    if kind == "ld":
        return Instruction(Op.LD_GLOBAL, lines=tuple(int(x) for x in entry[1]))
    if kind == "st":
        return Instruction(Op.ST_GLOBAL, lines=tuple(int(x) for x in entry[1]))
    if kind == "bar":
        return Instruction(Op.BARRIER)
    if kind == "exit":
        return Instruction(Op.EXIT)
    raise ValueError(f"unknown instruction kind {kind!r}")


def save_kernel_trace(kernel: Kernel, path: str | Path) -> None:
    """Materialise every warp program of ``kernel`` into a trace file.

    Beware of grid size: the file holds the *whole* grid's traces.
    """
    warps = {}
    for cta_id in range(kernel.num_ctas):
        for warp_idx in range(kernel.warps_per_cta):
            program = kernel.build_warp_program(cta_id, warp_idx)
            warps[f"{cta_id}/{warp_idx}"] = [
                _encode_instruction(inst) for inst in program]
    document = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "name": kernel.name,
        "num_ctas": kernel.num_ctas,
        "warps_per_cta": kernel.warps_per_cta,
        "regs_per_thread": kernel.regs_per_thread,
        "shmem_per_cta": kernel.shmem_per_cta,
        "tags": list(kernel.tags),
        "warps": warps,
    }
    Path(path).write_text(json.dumps(document))


def load_kernel_trace(path: str | Path) -> Kernel:
    """Load a trace file back into a Kernel (checking every program)."""
    try:
        return _kernel_from_document(json.loads(Path(path).read_text()))
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from None


def _kernel_from_document(document: object) -> Kernel:
    if not isinstance(document, dict) \
            or document.get("format") != FORMAT_NAME:
        raise ValueError(f"not a {FORMAT_NAME} file")
    if document.get("version") != FORMAT_VERSION:
        raise ValueError(f"unsupported version {document.get('version')!r}")
    missing = [field for field in _REQUIRED if field not in document]
    if missing:
        raise ValueError(f"missing field(s) {', '.join(missing)}")
    if not isinstance(document["warps"], dict):
        raise ValueError("'warps' must map 'cta/warp' keys to programs")
    num_ctas = int(document["num_ctas"])
    warps_per_cta = int(document["warps_per_cta"])
    programs: dict[tuple[int, int], ColumnProgram] = {}
    for key, encoded in document["warps"].items():
        try:
            cta_text, _, warp_text = key.partition("/")
            program = program_columns(map(_decode_instruction, encoded))
            program.check()
            programs[(int(cta_text), int(warp_text))] = program
        except (LookupError, TypeError, ValueError) as exc:
            raise ValueError(f"warp {key}: {exc}") from None
    expected = {(c, w) for c in range(num_ctas) for w in range(warps_per_cta)}
    if set(programs) != expected:
        missing = sorted(expected - set(programs))[:5]
        extra = sorted(set(programs) - expected)[:5]
        raise ValueError("trace set mismatch "
                         f"(missing {missing}, unexpected {extra})")

    def builder(cta_id: int, warp_idx: int) -> ColumnProgram:
        return programs[(cta_id, warp_idx)]

    return Kernel(document["name"], num_ctas, warps_per_cta, builder,
                  regs_per_thread=int(document.get("regs_per_thread", 20)),
                  shmem_per_cta=int(document.get("shmem_per_cta", 0)),
                  tags=tuple(document.get("tags", ())))
