"""Campaign chaos drill, in miniature: real worker subprocesses, real
``kill-worker`` faults, real restarts.

This is the in-repo version of ``make campaign-chaos-smoke`` — smaller
(two cells, two shards, two guaranteed kills) so it stays inside tier-1
wall-time budgets while still proving the end-to-end claim: killed
workers lose their leases, restarted workers reclaim and finish, and the
final table is bitwise-identical to an unfaulted single-worker run.
"""

import textwrap

from repro.service.chaos import run_chaos


def test_kill_restart_drill_converges_bitwise(tmp_path):
    design_file = tmp_path / "drill.toml"
    design_file.write_text(textwrap.dedent("""\
        [design]
        name = "drill"

        [[design.factor]]
        name = "bench"
        levels = ["kmeans", "streaming", "compute"]
    """))
    report = run_chaos(design_file, shards=2, min_kills=2, max_rounds=6,
                       seed=11, root=tmp_path / "chaos", scale=0.02,
                       lease_ttl=1.0, kill_span=1)
    assert report.ok, report.summary_line()
    assert report.stats["kills"] >= 2
    assert report.counts["done"] == 3
    # Exactly-once: lease arbitration kept racing workers off each
    # other's cells, so no double completions were even needed.
    assert report.stats["duplicate_done"] == 0
