"""Shared helper for the benchmark harness."""

from __future__ import annotations

from repro.harness.experiments import plan_experiments


def run_and_print(benchmark, driver, ctx):
    """Plan and run one experiment driver under pytest-benchmark and print
    its table.

    The timed call plans the driver's experiment first, so its cells run
    as one engine batch across the context's workers (E12 has no design:
    planning it runs nothing).
    """
    exp_id = driver.__name__.partition("_")[0]     # e5_warp_schedulers -> e5

    def planned():
        plan_experiments(ctx, [exp_id])
        return driver(ctx)

    table = benchmark.pedantic(planned, rounds=1, iterations=1)
    print()
    print(table.render())
    return table
