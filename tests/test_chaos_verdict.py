"""Every chaos-drill check can fail: the shared verdict on forged state.

Each case forges the end state a drill leaves behind — journals written
with :class:`~repro.design.journal.Journal`, results written with
:meth:`~repro.harness.cache.ResultCache.put`, the way the daemon, its
workers and the campaign shards write them — changes one thing, and
asserts that exactly the matching check fails.  No subprocess starts;
the only simulations are each drill's two-cell reference.
"""

import dataclasses
import textwrap

import pytest

from repro.design.campaign import Campaign
from repro.design.journal import JOURNAL_NAME, Journal
from repro.harness.cache import ResultCache
from repro.service.chaos import POISON_ID, TOPOLOGIES, DrillReport, _Drill
from repro.service.protocol import job_id

DESIGN = textwrap.dedent("""\
    [design]
    name = "verdict"

    [[design.factor]]
    name = "bench"
    levels = ["kmeans", "compute"]
""")

#: The event kinds a passing end state journals, per state dir (node 0
#: first: the daemon the poison job is pinned to).
EVENTS = {
    "daemon": [["admission.shed", "breaker.open"]],
    "fleet": [["breaker.open", "peer.dead", "cluster.degraded"],
              ["breaker.sync", "peer.dead"], []],
}


class _Exited:
    """A daemon process that exits with ``code`` when SIGTERMed."""

    pid = 0

    def __init__(self, code):
        self.code = code

    def terminate(self):
        pass

    def kill(self):
        pass

    def wait(self, timeout=None):
        return self.code


@pytest.fixture(scope="module")
def drills(tmp_path_factory):
    root = tmp_path_factory.mktemp("drills")
    design = root / "verdict.toml"
    design.write_text(DESIGN)
    return {name: _Drill(name, design, seed=7, root=root / name, scale=0.02)
            for name in TOPOLOGIES}


def _fresh(drill, **stats):
    drill.report = DrillReport(drill.report.topology,
                               checks=dict.fromkeys(drill.topology.checks),
                               stats=stats)
    return drill.report


def _forge(drill, root, *, failed_cell=False, cycles_off=0,
           done_twice=False, poison_ordinal=0, poison_runs=1, events=None):
    """A passing daemon or fleet end state under ``root`` (node 0 ran
    every job), changed as the keywords say."""
    events = EVENTS[drill.report.topology] if events is None else events
    dirs = [root / f"state-{node}" for node in range(len(events))]
    for directory, kinds in zip(dirs, events):
        directory.mkdir(parents=True)
        (directory / "journal.jsonl").touch()
        log = Journal(directory / "events.jsonl", worker="forged")
        for kind in kinds:
            log.append("event", kind=kind)
    journal = Journal(dirs[0] / "journal.jsonl", worker="forged")
    journal.append("submit", id=POISON_ID, ordinal=poison_ordinal)
    for _ in range(poison_runs):
        journal.append("quarantined", id=POISON_ID, state="quarantined")
    cache = ResultCache(root / "cache")
    for cell in drill.cells:
        rid = job_id(drill.digest, cell.index)
        result = drill.reference[cell.label]
        first = cell.index == 0
        journal.append("submit", id=rid, ordinal=cell.index + 1)
        state = "failed" if failed_cell and first else "done"
        for _ in range(2 if done_twice and first else 1):
            journal.append(state, id=rid, state=state,
                           cycles=result.cycles, ipc=result.ipc)
        if cycles_off and first:
            result = dataclasses.replace(result,
                                         cycles=result.cycles + cycles_off)
        cache.put(cell.job.fingerprint(), result)
    return dirs, root / "cache"


def _judge(drill, root, *, drained=0, trace_text="{}",
           expected_reclaim=False, **change):
    report = _fresh(drill, expected_reclaim=expected_reclaim)
    dirs, cache = _forge(drill, root, **change)
    trace = root / "trace.json"
    trace.write_text(trace_text)
    drill.drain([_Exited(drained)], trace=trace)
    drill.audit_verdict(dirs, cache)
    return report


def _judge_shards(drill, root, *, skip_first=False, cycles_off=0,
                  done_twice=False):
    report = _fresh(drill)
    campaign = Campaign.open(drill.design, drill.env, root=root)
    journal = Journal(campaign.path / JOURNAL_NAME, worker="forged")
    for cell in campaign.cells:
        result = drill.reference[cell.label]
        first = cell.index == 0
        if skip_first and first:
            continue
        for _ in range(2 if done_twice and first else 1):
            journal.append("done", id=cell.id,
                           fingerprint=cell.fingerprint,
                           cycles=result.cycles + (cycles_off if first
                                                   else 0),
                           ipc=result.ipc)
    drill.campaign_verdict(root)
    return report


@pytest.mark.parametrize("topology", ["daemon", "fleet"])
def test_a_passing_end_state_passes(drills, tmp_path, topology):
    report = _judge(drills[topology], tmp_path)
    assert report.ok, report.summary_line()
    assert report.counts["done"] == 2


def test_shards_verdict(drills, tmp_path):
    drill = drills["shards"]
    report = _judge_shards(drill, tmp_path / "ok", done_twice=True)
    assert report.ok, report.summary_line()
    # Duplicate completions from lease races are counted, not failed.
    assert report.stats["duplicate_done"] == 1
    assert _judge_shards(drill, tmp_path / "wrong",
                         cycles_off=1).failed == ["identical"]
    # A cell that never finished has no result to compare either.
    assert _judge_shards(drill, tmp_path / "stuck",
                         skip_first=True).failed == ["converged",
                                                     "identical"]


@pytest.mark.parametrize("topology", ["daemon", "fleet"])
def test_a_cell_without_a_done_record_fails_converged(drills, tmp_path,
                                                      topology):
    report = _judge(drills[topology], tmp_path, failed_cell=True)
    assert report.failed == ["converged"]


@pytest.mark.parametrize("topology", ["daemon", "fleet"])
def test_a_cached_result_off_the_reference_fails_identical(drills, tmp_path,
                                                           topology):
    report = _judge(drills[topology], tmp_path, cycles_off=1)
    assert report.failed == ["identical"]
    assert "expected" in report.mismatches[0]


def test_a_second_executed_terminal_is_only_effectively_once(drills,
                                                             tmp_path):
    assert _judge(drills["daemon"], tmp_path / "daemon",
                  done_twice=True).failed == ["exactly-once"]
    assert _judge(drills["fleet"], tmp_path / "fleet", done_twice=True).ok


@pytest.mark.parametrize("topology, change", [
    ("fleet", {"poison_runs": 2}),
    ("daemon", {"poison_ordinal": 1}),
    ("fleet", {"poison_ordinal": 1}),
    # A submit record without an ordinal is not ordinal 0.
    ("daemon", {"poison_ordinal": None}),
    ("fleet", {"poison_ordinal": None}),
])
def test_a_poison_job_run_twice_or_off_ordinal_zero_fails(drills, tmp_path,
                                                          topology, change):
    report = _judge(drills[topology], tmp_path, **change)
    assert report.failed == ["poison-quarantined"]


def test_a_poison_job_run_twice_by_one_daemon_fails_both_bars(drills,
                                                              tmp_path):
    report = _judge(drills["daemon"], tmp_path, poison_runs=2)
    assert report.failed == ["exactly-once", "poison-quarantined"]


@pytest.mark.parametrize("topology, events, check", [
    ("daemon", [["breaker.open"]], "shed"),
    ("daemon", [["admission.shed"]], "breaker"),
    # breaker.sync journaled by node 0 alone has propagated nowhere.
    ("fleet", [["breaker.sync", "peer.dead", "cluster.degraded"],
               ["peer.dead"], []], "quarantine-propagated"),
    ("fleet", [["breaker.open", "peer.dead"], ["breaker.sync"], []],
     "partition"),
])
def test_a_missing_event_fails_its_check(drills, tmp_path, topology, events,
                                         check):
    report = _judge(drills[topology], tmp_path, events=events)
    assert report.failed == [check]


def test_a_reclaim_rendezvous_demands_must_be_seen(drills, tmp_path):
    report = _judge(drills["fleet"], tmp_path, expected_reclaim=True)
    assert report.failed == ["reclaim"]


@pytest.mark.parametrize("topology, change", [
    ("daemon", {"drained": 1}),
    ("fleet", {"drained": 1}),
    ("daemon", {"trace_text": "{"}),
])
def test_an_unclean_drain_fails_drain_clean(drills, tmp_path, topology,
                                            change):
    report = _judge(drills[topology], tmp_path, **change)
    assert report.failed == ["drain-clean"]


def test_a_check_never_made_fails(drills, tmp_path):
    report = _fresh(drills["daemon"])
    dirs, cache = _forge(drills["daemon"], tmp_path)
    drills["daemon"].audit_verdict(dirs, cache)
    assert report.failed == ["drain-clean"]
    assert "failed checks: drain-clean" in report.summary_line()
