"""E20 (modelling ablation) — LCS vs the L1 MSHR budget.

The reproduction's L1 MSHR count (16) is a pivotal modelling choice: MSHRs
are themselves a throttle on over-subscription.  The claim that LCS wins on
cache-sensitive kernels must hold across a reasonable MSHR range.
"""

from bench_common import run_and_print
from repro.harness.experiments import e20_mshr_sensitivity


def test_e20_mshr_sensitivity(benchmark, ctx):
    table = run_and_print(benchmark, e20_mshr_sensitivity, ctx)
    row = table.row_for("kmeans")
    # LCS wins clearly while MSHRs are scarce (8, 16 entries) and must not
    # hurt when they are plentiful.
    assert row[1] > 1.05 and row[2] > 1.05
    assert row[3] > 0.95
