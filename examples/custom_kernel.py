#!/usr/bin/env python3
"""Authoring a custom kernel, saving its trace, and watching its timeline.

Demonstrates the downstream-user workflow:

1. describe a kernel with :class:`~repro.workloads.programs.TraceBuilder`
   (here: a reduction-style kernel — strided loads feeding a shared-memory
   tree reduction with barriers);
2. run it under the baseline and under LCS;
3. sample the occupancy timeline to *see* the LCS drain;
4. round-trip the kernel through the portable JSON trace format.

Usage::

    python examples/custom_kernel.py
"""

import tempfile
from pathlib import Path

from repro import (GPUConfig, Kernel, LCSScheduler, TraceBuilder,
                   load_kernel_trace, save_kernel_trace, simulate)
from repro.telemetry import TelemetryHub
from repro.workloads.patterns import Region, region_base, rng_for

NUM_CTAS = 360
WARPS_PER_CTA = 4
SEED = 7


def build_reduction_warp(cta_id: int, warp_idx: int):
    """One warp of a reduction: gather a private random window, then a
    shared-memory tree reduction with a barrier per level."""
    region = Region(region_base("custom-reduce"), 1 << 22)
    rng = rng_for(SEED, "custom-reduce", cta_id, warp_idx)
    tb = TraceBuilder()
    window = cta_id * WARPS_PER_CTA + warp_idx
    for offset in rng.integers(0, 12, size=40):
        tb.load(region.line(window * 12 + int(offset)))
        tb.alu(2)
    for _level in range(4):           # log2(warp count) tree levels
        tb.shared(2)
        tb.barrier()
    tb.store(region.line((1 << 20) + window))
    return tb.build()


def occupancy_series(result, windows: int = 20) -> str:
    """Mean resident CTAs per SM for the first ``windows`` windows."""
    rows = result.meta["timeline"].ctas_per_sm[:windows]
    return " ".join(f"{sum(row) / len(row):.1f}" for row in rows)


def main() -> None:
    config = GPUConfig()
    kernel = Kernel("custom-reduce", NUM_CTAS, WARPS_PER_CTA,
                    build_reduction_warp, regs_per_thread=20,
                    tags=("custom",))
    print(f"custom kernel: {kernel.num_ctas} CTAs, occupancy "
          f"{kernel.max_ctas_per_sm(config)} CTAs/SM")

    # Baseline with a 1000-cycle telemetry window.
    baseline = simulate(kernel, config=config,
                        telemetry=TelemetryHub(window=1000, trace=False))
    print(f"\nbaseline: {baseline.cycles} cycles")
    print("occupancy timeline (mean CTAs/SM per kilocycle):")
    print("  " + occupancy_series(baseline))

    # LCS on the same kernel.
    kernel2 = Kernel("custom-reduce", NUM_CTAS, WARPS_PER_CTA,
                     build_reduction_warp, regs_per_thread=20)
    scheduler = LCSScheduler(kernel2)
    lcs = simulate(kernel2, config=config, cta_scheduler=scheduler,
                   telemetry=TelemetryHub(window=1000, trace=False))
    decision = scheduler.decision
    print(f"\nLCS: {lcs.cycles} cycles "
          f"({baseline.cycles / lcs.cycles:.3f}x), "
          f"N*={decision.n_star}/{decision.occupancy} "
          f"decided at cycle {decision.decided_cycle}")
    print("occupancy timeline (watch the drain to N*):")
    print("  " + occupancy_series(lcs))

    # Round-trip through the portable trace format.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "custom-reduce.json"
        save_kernel_trace(kernel, path)
        loaded = load_kernel_trace(path)
        size_kb = path.stat().st_size // 1024
        print(f"\ntrace file: {size_kb} KB; reloaded kernel "
              f"{loaded.name!r} with {loaded.num_ctas} CTAs "
              f"(programs identical: "
              f"{loaded.build_warp_program(0, 0) == kernel.build_warp_program(0, 0)})")


if __name__ == "__main__":
    main()
