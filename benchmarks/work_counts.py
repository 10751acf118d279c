"""Exact work counters of the simulator, recorded and checked.

Runs the end-to-end benchmark's traced pass (``benchmarks/e2e/run.py
--workload W --trace 1`` at the golden seed, unmodified) for ``sim-mem``
and ``sim-compute`` and keeps the numbers that do not depend on the host:
every simulator layer's call count and the eight modelled counters.  At
a fixed seed they are exact, so any difference is a change in the work
the simulator does, never timing noise.

    python3 benchmarks/work_counts.py --out BENCH_work.json     # record
    python3 benchmarks/work_counts.py --check BENCH_work.json   # gate

``--check`` exits 1 on any difference, naming each counter with its
recorded and measured value.  A change that moves a counter on purpose
re-records the file and says why.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
E2E = HERE / "e2e"
REPO = HERE.parent
sys.path[:0] = [str(REPO / "src"), str(E2E)]

from common import GOLDEN_SEED  # noqa: E402
from layers import SIM_COUNTERS, SIM_LAYERS  # noqa: E402

WORKLOADS = ("sim-mem", "sim-compute")

#: The counters kept from a traced run, in reporting order.
COUNTERS = tuple(f"{layer}.calls" for layer in SIM_LAYERS) + SIM_COUNTERS


def measure(workload: str) -> dict[str, float]:
    """One traced golden-seed run of ``workload``: its exact counters."""
    command = [sys.executable, str(E2E / "run.py"), "--workload", workload,
               "--seed", str(GOLDEN_SEED), "--trace", "1"]
    done = subprocess.run(command, capture_output=True, text=True,
                          timeout=900)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"work_counts: {workload} printed no result "
                         f"(exit {done.returncode})") from None
    if not result["correct"]:
        sys.stderr.write(done.stdout)
        raise SystemExit(f"work_counts: {workload} failed its output checks")
    return {name: result["metrics"][name]["value"] for name in COUNTERS}


def differences(recorded: dict, measured: dict) -> list[str]:
    """One line per counter whose measured value is not the recorded one."""
    lines = []
    for workload, counters in measured.items():
        expected = recorded.get(workload, {})
        for name, value in counters.items():
            if expected.get(name) != value:
                lines.append(f"{workload} {name}: recorded "
                             f"{expected.get(name)}, measured {value}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--out", type=Path, help="record the counters here")
    mode.add_argument("--check", type=Path,
                      help="fail on any difference from this record")
    args = parser.parse_args(argv)
    measured = {workload: measure(workload) for workload in WORKLOADS}
    if args.out is not None:
        args.out.write_text(json.dumps(
            {"seed": GOLDEN_SEED, "workloads": measured}, indent=1) + "\n")
        print(f"work_counts: wrote {args.out}")
        return 0
    recorded = json.loads(args.check.read_text())["workloads"]
    problems = differences(recorded, measured)
    for line in problems:
        print(f"work_counts: {line}")
    if problems:
        print(f"work_counts: {len(problems)} counter(s) differ from "
              f"{args.check}; re-record with `make bench-work` only for an "
              f"intended change")
        return 1
    print(f"work_counts: all {len(COUNTERS)} counters of "
          f"{len(WORKLOADS)} workloads equal {args.check}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
