"""Durable-campaign tests: lease protocol, retry budgets, compaction
equivalence, append-failure degradation, and older-format stores set
aside and rebuilt.

The subprocess-level kill/restart drill lives in
``tests/test_campaign_chaos.py``; everything here runs in-process (so no
``kill-worker`` faults — those take the whole interpreter down).
"""

import json
import os
import time
from pathlib import Path

import pytest

from repro.design import (Campaign, CampaignError, Design, DesignEnv,
                          Factor, Job, JobStore, Journal, replay_journal)
from repro.design import campaign as campaign_module
from repro.design.campaign import _META
from repro.design.journal import JOURNAL_NAME, SNAPSHOT_NAME
from repro.harness.cache import ResultCache
from repro.harness.faults import FaultPlan

TINY = 0.02


def _design(benches=("kmeans", "streaming")):
    return Design("camp", factors=[
        Factor.crossed("bench", benches),
        Factor.crossed("policy", (("rr",),)),
    ])


def _claimable(campaign, worker, **kwargs):
    return [job.index for job in
            campaign.store.refresh().claimable(worker=worker, **kwargs)]


def _fold(campaign, journal_bytes, directory):
    """A fresh store over ``journal_bytes`` declaring ``campaign``'s cells."""
    directory.mkdir()
    (directory / JOURNAL_NAME).write_bytes(journal_bytes)
    store = JobStore(directory, key=campaign.digest)
    store.declare(Job(cell.id, cell.fingerprint, cell.job, cell.index)
                  for cell in campaign.cells)
    return store.refresh()


class TestLeaseProtocol:
    def test_first_live_claim_in_file_order_wins(self, tmp_path):
        env = DesignEnv(scale=TINY)
        campaign = Campaign.open(_design(), env, root=tmp_path / "c")
        cell = campaign.cells[0].id
        journal = Journal(campaign.path / JOURNAL_NAME, worker="w1")
        journal.append("claim", id=cell, fingerprint="x", nonce="a", ttl=60)
        Journal(campaign.path / JOURNAL_NAME, worker="w2") \
            .append("claim", id=cell, fingerprint="x", nonce="b", ttl=60)
        store = campaign.store.refresh()
        winner = store.winner(campaign.cells[0], time.time())
        assert winner["worker"] == "w1" and winner["nonce"] == "a"
        # w2 may not claim cell 0, but cell 1 is free.
        assert _claimable(campaign, "w2") == [1]
        assert _claimable(campaign, "w1") == [0, 1]

    def test_expired_lease_is_reclaimed_and_run(self, tmp_path):
        # A worker claimed a cell and died silently: once its TTL lapses
        # the next run() must reclaim the cell and finish the campaign.
        env = DesignEnv(scale=TINY)
        cache = ResultCache(tmp_path / "cache")
        campaign = Campaign.open(_design(), env, root=tmp_path / "c")
        dead = Journal(campaign.path / JOURNAL_NAME, worker="dead")
        dead.append("claim", id=campaign.cells[0].id,
                    fingerprint=campaign.cells[0].fingerprint,
                    nonce="dead#1", ttl=0.2)
        assert _claimable(campaign, "live") == [1]
        time.sleep(0.25)
        report = campaign.run(cache=cache, worker_id="live")
        assert report.ok and report.executed == 2
        assert report.leases_reclaimed == 1
        assert any(e["kind"] == "lease.expired" for e in report.events)

    def test_release_unblocks_a_cell_immediately(self, tmp_path):
        env = DesignEnv(scale=TINY)
        campaign = Campaign.open(_design(), env, root=tmp_path / "c")
        cell = campaign.cells[0].id
        other = Journal(campaign.path / JOURNAL_NAME, worker="other")
        other.append("claim", id=cell, fingerprint="x", nonce="n1", ttl=60)
        assert _claimable(campaign, "me") == [1]
        other.append("release", id=cell, nonce="n1")
        assert _claimable(campaign, "me") == [0, 1]

    def test_double_completion_resolves_by_first_done_record(self, tmp_path):
        # Two workers raced one cell (an expired-but-alive holder and its
        # reclaimer both finished): the first done record wins, the
        # second is a counted duplicate, never an error.
        env = DesignEnv(scale=TINY)
        campaign = Campaign.open(_design(), env, root=tmp_path / "c")
        cell = campaign.cells[0]
        fp = cell.fingerprint
        Journal(campaign.path / JOURNAL_NAME, worker="w1") \
            .append("done", id=cell.id, fingerprint=fp, cycles=111, ipc=1.0)
        Journal(campaign.path / JOURNAL_NAME, worker="w2") \
            .append("done", id=cell.id, fingerprint=fp, cycles=111, ipc=1.0)
        store = campaign.store.refresh()
        assert cell.status == "done"
        assert cell.cycles == 111
        assert store.duplicate_done == 1

    def test_done_with_wrong_fingerprint_is_ignored(self, tmp_path):
        env = DesignEnv(scale=TINY)
        campaign = Campaign.open(_design(), env, root=tmp_path / "c")
        Journal(campaign.path / JOURNAL_NAME, worker="stale") \
            .append("done", id=campaign.cells[0].id,
                    fingerprint="from-another-design", cycles=9, ipc=9.9)
        store = campaign.store.refresh()
        assert campaign.cells[0].status == "pending"
        assert store.ignored_records == 1


class TestShardedRuns:
    def test_two_workers_split_one_campaign_in_process(self, tmp_path):
        # Interleave two shard-mode run() calls by hand: worker A claims
        # one cell per pool worker at a time, so worker B always finds
        # work until the campaign drains; every cell ends done exactly
        # once.
        env = DesignEnv(scale=TINY)
        cache = ResultCache(tmp_path / "cache")
        design = _design(("kmeans", "streaming", "compute"))
        a = Campaign.open(design, env, root=tmp_path / "c")
        ra = a.run(cache=cache, worker_id="A", shard=True)
        b = Campaign.open(design, env, root=tmp_path / "c")
        rb = b.run(cache=cache, worker_id="B", shard=True)
        assert ra.ok and rb.ok
        assert ra.executed == 3 and len(ra.batches) == 3
        assert rb.executed == 0 and rb.resumed == 3
        assert b.store.refresh().duplicate_done == 0


class TestRetryBudget:
    def test_max_retries_exhausts_a_persistently_failing_cell(self,
                                                              tmp_path):
        env = DesignEnv(scale=TINY)
        root = tmp_path / "c"
        state_dir = str(tmp_path / "faults")
        # fail:0 targets batch position 0 every run; with max_retries=1
        # the cell earns: failed (attempt 1), failed (attempt 2),
        # exhausted.
        first = Campaign.open(_design(), env, root=root)
        r1 = first.run(faults=FaultPlan.parse("fail:0",
                                              state_dir=state_dir),
                       retries=0, max_retries=1)
        assert r1.failed == 1 and r1.exhausted == 0

        second = Campaign.open(_design(), env, root=root)
        r2 = second.run(faults=FaultPlan.parse("fail:0",
                                               state_dir=state_dir),
                        retries=0, max_retries=1)
        assert r2.failed == 0 and r2.exhausted == 1
        assert second.counts()["exhausted"] == 1
        assert not r2.ok

        # An exhausted cell is never claimed again: no faults this time,
        # yet nothing is dispatched for it.
        third = Campaign.open(_design(), env, root=root)
        r3 = third.run(max_retries=1)
        assert r3.executed == 0 and r3.exhausted == 1
        kinds = [r["type"] for r in
                 replay_journal(third.path / JOURNAL_NAME).records]
        assert "exhausted" in kinds

    def test_without_cap_failed_cells_retry_forever(self, tmp_path):
        env = DesignEnv(scale=TINY)
        root = tmp_path / "c"
        state_dir = str(tmp_path / "faults")
        for _ in range(3):
            campaign = Campaign.open(_design(), env, root=root)
            report = campaign.run(
                faults=FaultPlan.parse("fail:0", state_dir=state_dir),
                retries=0)
            assert report.failed == 1 and report.exhausted == 0
        assert campaign.counts()["failed"] == 1


class TestCompaction:
    def test_snapshot_plus_tail_equals_full_journal(self, tmp_path):
        # The mid-campaign equivalence property: fold(snapshot + journal
        # tail) must equal fold(full journal).
        env = DesignEnv(scale=TINY)
        cache = ResultCache(tmp_path / "cache")
        design = _design(("kmeans", "streaming", "compute"))
        campaign = Campaign.open(design, env, root=tmp_path / "c")
        # Complete two cells, keep the full journal aside, compact, then
        # append a post-compaction record.
        cells = campaign.cells
        journal = Journal(campaign.path / JOURNAL_NAME, worker="w")
        journal.append("done", id=cells[0].id,
                       fingerprint=cells[0].fingerprint, cycles=10, ipc=1.0)
        journal.append("failed", id=cells[1].id,
                       fingerprint=cells[1].fingerprint, error="x")
        full_bytes = (campaign.path / JOURNAL_NAME).read_bytes()
        assert campaign.store.compact()
        tail = Journal(campaign.path / JOURNAL_NAME, worker="w")
        tail.append("done", id=cells[2].id, fingerprint=cells[2].fingerprint,
                    cycles=30, ipc=3.0)
        full_bytes += (campaign.path / JOURNAL_NAME).read_bytes()

        via_snapshot = campaign.store.refresh()
        via_full = _fold(campaign, full_bytes, tmp_path / "full")
        for cell in cells:
            a, b = via_snapshot.jobs[cell.id], via_full.jobs[cell.id]
            assert (a.status, a.attempts, a.cycles, a.ipc, a.error) \
                == (b.status, b.attempts, b.cycles, b.ipc, b.error)

    def test_compaction_killed_before_truncation_changes_nothing(
            self, tmp_path, monkeypatch):
        # The snapshot lands but the journal is never truncated (the
        # compactor died in between): replay must skip the prefix the
        # snapshot covers instead of folding it a second time.
        env = DesignEnv(scale=TINY)
        campaign = Campaign.open(_design(), env, root=tmp_path / "c")
        failed, done = campaign.cells
        journal = Journal(campaign.path / JOURNAL_NAME, worker="w")
        journal.append("failed", id=failed.id,
                       fingerprint=failed.fingerprint, error="x")
        journal.append("done", id=done.id, fingerprint=done.fingerprint,
                       cycles=10, ipc=1.0)
        replace = os.replace

        def killed_before_truncation(src, dst):
            if Path(dst).name == JOURNAL_NAME:
                raise OSError("compactor killed before truncation")
            return replace(src, dst)

        monkeypatch.setattr(os, "replace", killed_before_truncation)
        assert campaign.store.compact() is False
        monkeypatch.undo()
        assert (campaign.path / SNAPSHOT_NAME).exists()
        assert len(replay_journal(campaign.path / JOURNAL_NAME).records) == 2

        reopened = Campaign.open(_design(), env, root=tmp_path / "c")
        assert reopened.cells[0].attempts == 1
        assert reopened.store.duplicate_done == 0
        assert _claimable(reopened, "me", max_retries=1) == [0]

    def test_compact_truncates_journal_and_resumes(self, tmp_path):
        env = DesignEnv(scale=TINY)
        cache = ResultCache(tmp_path / "cache")
        campaign = Campaign.open(_design(), env, root=tmp_path / "c")
        campaign.run(cache=cache)
        assert len(replay_journal(campaign.path / JOURNAL_NAME).records) > 0
        assert campaign.store.compact()
        assert replay_journal(campaign.path / JOURNAL_NAME).records == []
        assert (campaign.path / SNAPSHOT_NAME).exists()
        resumed = Campaign.open(_design(), env, root=tmp_path / "c")
        report = resumed.run(cache=cache)
        assert report.executed == 0 and report.resumed == 2

    def test_compact_refuses_under_a_live_lease(self, tmp_path):
        env = DesignEnv(scale=TINY)
        campaign = Campaign.open(_design(), env, root=tmp_path / "c")
        Journal(campaign.path / JOURNAL_NAME, worker="other") \
            .append("claim", id=campaign.cells[0].id,
                    fingerprint=campaign.cells[0].fingerprint,
                    nonce="n", ttl=60)
        assert campaign.store.compact() is False
        assert campaign.store.compact(force=True) is True

    def test_auto_compaction_during_run(self, tmp_path, monkeypatch):
        monkeypatch.setattr(campaign_module, "DEFAULT_COMPACT_EVERY", 1)
        env = DesignEnv(scale=TINY)
        cache = ResultCache(tmp_path / "cache")
        campaign = Campaign.open(_design(), env, root=tmp_path / "c")
        report = campaign.run(cache=cache)
        assert report.ok
        assert any(e["kind"] == "journal.compact" for e in report.events)
        resumed = Campaign.open(_design(), env, root=tmp_path / "c")
        assert resumed.counts()["done"] == 2


class TestAppendFailureDegradation:
    def test_campaign_completes_with_warning_and_snapshot_fallback(
            self, tmp_path):
        env = DesignEnv(scale=TINY)
        cache = ResultCache(tmp_path / "cache")
        campaign = Campaign.open(_design(), env, root=tmp_path / "c")
        plan = FaultPlan.parse("fail-append:0",
                               state_dir=str(tmp_path / "faults"))
        with pytest.warns(RuntimeWarning, match="not appendable"):
            report = campaign.run(cache=cache, faults=plan)
        assert report.ok and report.executed == 2
        assert report.journal_append_errors > 0
        assert any(e["kind"] == "campaign.snapshot_fallback"
                   for e in report.events)
        # Nothing reached the journal, but the exit snapshot preserved
        # the outcome: a fresh invocation resumes, not re-executes.
        assert replay_journal(campaign.path / JOURNAL_NAME).records == []
        resumed = Campaign.open(_design(), env, root=tmp_path / "c")
        assert resumed.counts()["done"] == 2
        report = resumed.run(cache=cache)
        assert report.executed == 0 and report.resumed == 2


class TestStoreHygiene:
    def test_older_format_stores_are_set_aside_and_rebuilt(self, tmp_path):
        # A format-1 store (one manifest.json) and a format-2 store
        # (meta.json + a journal keyed by cell index) cannot be read:
        # each is set aside as .corrupt and rebuilt from the design, and
        # its done cells replay from the warm result cache.
        env = DesignEnv(scale=TINY)
        cache = ResultCache(tmp_path / "cache")
        campaign = Campaign.open(_design(), env, root=tmp_path / "c")
        assert campaign.run(cache=cache).ok
        meta = json.loads((campaign.path / _META).read_text())
        cells = [{"index": cell.index, "label": cell.label,
                  "fingerprint": cell.fingerprint, "job": cell.job}
                 for cell in campaign.cells]
        manifest = {**meta, "format": 1,
                    "cells": [{**cell, "status": "done", "cycles": 42,
                               "ipc": 1.5, "error": None}
                              for cell in cells]}
        format2 = {**meta, "format": 2}
        for stale, files in (
                ("manifest.json", {"manifest.json": json.dumps(manifest)}),
                (_META, {_META: json.dumps(format2)})):
            for name in (_META, JOURNAL_NAME, SNAPSHOT_NAME):
                (campaign.path / name).unlink(missing_ok=True)
            for name, text in files.items():
                (campaign.path / name).write_text(text)
            if stale == _META:
                journal = Journal(campaign.path / JOURNAL_NAME, worker="old")
                for cell in cells:
                    journal.append("done", cell=cell["index"],
                                   fingerprint=cell["fingerprint"],
                                   cycles=42, ipc=1.5)

            rebuilt = Campaign.open(_design(), env, root=tmp_path / "c")
            assert (campaign.path / (stale + ".corrupt")).exists()
            assert not (campaign.path / "manifest.json").exists()
            assert json.loads((campaign.path / _META).read_text())[
                "format"] == 3
            assert rebuilt.counts()["pending"] == 2
            hits, misses = cache.hits, cache.misses
            report = rebuilt.run(cache=cache)
            assert report.ok and report.executed == 2
            assert (cache.hits, cache.misses) == (hits + 2, misses)
            assert [cell.cycles for cell in rebuilt.cells] \
                == [cell.cycles for cell in campaign.cells]

    def test_stray_tmp_files_are_swept_on_open(self, tmp_path):
        env = DesignEnv(scale=TINY)
        campaign = Campaign.open(_design(), env, root=tmp_path / "c")
        stray = campaign.path / ".tmp-meta-abandoned"
        stray.write_text("half a manifest")
        reopened = Campaign.open(_design(), env, root=tmp_path / "c")
        assert reopened.path == campaign.path
        assert not stray.exists()

    def test_corrupt_meta_is_quarantined_and_rebuilt(self, tmp_path):
        env = DesignEnv(scale=TINY)
        campaign = Campaign.open(_design(), env, root=tmp_path / "c")
        (campaign.path / _META).write_text("{truncated")
        reopened = Campaign.open(_design(), env, root=tmp_path / "c")
        assert len(reopened.cells) == 2
        assert (campaign.path / (_META + ".corrupt")).exists()
        assert json.loads((campaign.path / _META).read_text())["format"] == 3

    def test_corrupt_meta_load_quarantines_then_raises(self, tmp_path):
        env = DesignEnv(scale=TINY)
        campaign = Campaign.open(_design(), env, root=tmp_path / "c")
        (campaign.path / _META).write_text('{"format": 99}')
        with pytest.raises(CampaignError, match="quarantined"):
            Campaign.load(campaign.path)
        assert (campaign.path / (_META + ".corrupt")).exists()

    def test_journal_damage_is_surfaced_as_an_event(self, tmp_path):
        env = DesignEnv(scale=TINY)
        cache = ResultCache(tmp_path / "cache")
        campaign = Campaign.open(_design(), env, root=tmp_path / "c")
        campaign.run(cache=cache)
        with open(campaign.path / JOURNAL_NAME, "ab") as handle:
            handle.write(b'{"type": "done", "torn...')
        resumed = Campaign.open(_design(), env, root=tmp_path / "c")
        report = resumed.run(cache=cache)
        assert report.resumed == 2
        assert any(e["kind"] == "journal.damage"
                   and e["payload"]["torn_tail"] for e in report.events)


class TestHeartbeatLifecycle:
    def test_ttl_jitter_is_deterministic_and_bounded(self):
        from repro.design import TTL_JITTER_FRAC, worker_ttl_jitter
        values = [worker_ttl_jitter(f"worker-{i}") for i in range(16)]
        assert all(0.0 <= v < 1.0 for v in values)
        assert len(set(values)) > 1                 # actually spreads
        assert worker_ttl_jitter("w") == worker_ttl_jitter("w")
        assert 0.0 < TTL_JITTER_FRAC < 1.0

    def test_claimed_ttl_carries_the_worker_jitter(self, tmp_path):
        # N workers given the same --lease-ttl must not expire and
        # reclaim in lockstep; the journaled claim ttl shows the spread.
        from repro.design import TTL_JITTER_FRAC, worker_ttl_jitter
        env = DesignEnv(scale=TINY)
        cache = ResultCache(tmp_path / "cache")
        campaign = Campaign.open(_design(), env, root=tmp_path / "c")
        campaign.run(cache=cache, worker_id="jittered", lease_ttl=30.0)
        claims = [r for r in
                  replay_journal(campaign.path / JOURNAL_NAME).records
                  if r["type"] == "claim"]
        expected = 30.0 * (1.0 + TTL_JITTER_FRAC
                           * worker_ttl_jitter("jittered"))
        assert claims and all(c["ttl"] == pytest.approx(expected)
                              for c in claims)
        assert all(c["ttl"] > 30.0 for c in claims)

    def test_heartbeat_thread_joined_after_clean_run(self, tmp_path):
        import threading
        env = DesignEnv(scale=TINY)
        cache = ResultCache(tmp_path / "cache")
        campaign = Campaign.open(_design(), env, root=tmp_path / "c")
        assert campaign.run(cache=cache).ok
        assert not [t for t in threading.enumerate()
                    if t.name == "campaign-heartbeat"]

    def test_heartbeat_thread_joined_when_cells_fail(self, tmp_path):
        # The worker "dies mid-cell" (every cell fails): the finally
        # must still join the heartbeat — no zombie thread keeps
        # defending leases the worker no longer holds.
        import threading
        env = DesignEnv(scale=TINY)
        campaign = Campaign.open(_design(), env, root=tmp_path / "c")
        plan = FaultPlan.parse("fail:0,fail:1",
                               state_dir=str(tmp_path / "faults"))
        report = campaign.run(faults=plan, retries=0)
        assert report.failed == 2
        assert not [t for t in threading.enumerate()
                    if t.name == "campaign-heartbeat"]


class TestAppendFailureMidCampaign:
    def test_degraded_append_mid_campaign_snapshots_on_exit(self,
                                                            tmp_path):
        # fail-append:3 lets the first three appends land (claim, done,
        # claim) and then the "disk fills": the campaign must still
        # complete, warn once, and leave a snapshot whose fold equals
        # the full outcome — the journaled prefix plus the snapshot.
        env = DesignEnv(scale=TINY)
        cache = ResultCache(tmp_path / "cache")
        campaign = Campaign.open(_design(), env, root=tmp_path / "c")
        plan = FaultPlan.parse("fail-append:3",
                               state_dir=str(tmp_path / "faults"))
        with pytest.warns(RuntimeWarning, match="not appendable"):
            report = campaign.run(cache=cache, faults=plan)
        assert report.ok and report.executed == 2
        assert report.journal_append_errors > 0
        assert any(e["kind"] == "campaign.snapshot_fallback"
                   for e in report.events)
        # Unlike the append-dead-from-birth case, a prefix DID persist;
        # recovery folds snapshot + partial journal, not either alone.
        persisted = replay_journal(campaign.path / JOURNAL_NAME).records
        assert 0 < len(persisted) <= 3
        resumed = Campaign.open(_design(), env, root=tmp_path / "c")
        assert resumed.counts()["done"] == 2
        report = resumed.run(cache=cache)
        assert report.executed == 0 and report.resumed == 2
