"""Service chaos drill, in miniature: a real daemon SIGKILLed and
restarted under real worker kills, a wedged poison job and concurrent
clients.

This is the in-repo version of ``make service-chaos-smoke`` — smaller
(three cells, one daemon kill) so it stays inside tier-1 wall-time
budgets while still proving the service acceptance claim end to end:
every accepted job reaches exactly one terminal state, the cached
results are bitwise-identical to a fault-free in-process run, the
poison job is quarantined without stalling the queue, load shedding and
the breaker opening are journaled, and the final SIGTERM drain exits 0.
"""

import textwrap

from repro.service.chaos import run_service_chaos


def test_daemon_kill_restart_drill_converges_bitwise(tmp_path):
    design_file = tmp_path / "drill.toml"
    design_file.write_text(textwrap.dedent("""\
        [design]
        name = "service-drill"

        [[design.factor]]
        name = "bench"
        levels = ["kmeans", "streaming", "compute"]
    """))
    report = run_service_chaos(design_file, daemon_kills=1, seed=11,
                               root=tmp_path / "chaos", scale=0.02,
                               workers=2, queue_depth=2,
                               breaker_threshold=2, hb_timeout=1.5,
                               kill_window=(1.0, 2.0))
    assert report.ok, report.summary_line()
    assert report.stats["daemon_kills"] == 1
    assert report.stats["incarnations"] == 2
    assert report.counts["done"] == 3
    checks = report.checks
    assert checks["exactly-once"] and checks["poison-quarantined"]
    assert checks["shed"] and checks["breaker"] and checks["drain-clean"]
