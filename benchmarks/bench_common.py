"""Shared helper for the benchmark harness."""

from __future__ import annotations


def run_and_print(benchmark, driver, ctx):
    """Run one experiment driver under pytest-benchmark and print its table."""
    table = benchmark.pedantic(lambda: driver(ctx), rounds=1, iterations=1)
    print()
    print(table.render())
    return table
