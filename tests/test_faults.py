"""Tests for the engine's resilience paths, driven by fault injection.

Every recovery behaviour the engine promises — fault isolation, transient
retry, pool-crash respawn, per-job deadlines, cache-corruption misses — is
exercised here by injecting the corresponding failure at a known point
with :class:`repro.harness.faults.FaultPlan`.
"""

import gc
import multiprocessing
import sys
import tempfile
import threading
import time
from pathlib import Path

import pytest

from repro.harness import pool
from repro.harness.cache import ResultCache
from repro.harness.engine import JobExecutionError, run_batch, run_jobs
from repro.harness.faults import (Fault, FaultPlan, FaultSpecError,
                                  InjectedFault, InjectedTransientFault)
from repro.harness.jobs import SimJob
from repro.harness.pool import WorkerPool
from repro.sim.config import GPUConfig

SMALL = GPUConfig.small()


def _job(scale=0.05, **kwargs):
    return SimJob(names=("kmeans",), scale=scale, config=SMALL, **kwargs)


def _jobs(n):
    """n distinct small jobs (distinct scales -> distinct fingerprints)."""
    return [_job(scale=0.05 + 0.01 * i) for i in range(n)]


def _plan(spec, tmp_path):
    return FaultPlan.parse(spec, state_dir=str(tmp_path / "fault-state"))


def _results(report):
    """Every job's result in input order; each job must have one."""
    assert all(o.result is not None for o in report.outcomes), \
        [o.status for o in report.outcomes]
    return [o.result for o in report.outcomes]


# --------------------------------------------------------------------------- #
# spec parsing
# --------------------------------------------------------------------------- #

class TestFaultPlanParsing:
    def test_parse_all_actions(self, tmp_path):
        plan = _plan("fail:0, flaky:1;kill:2,delay:3:1.5,corrupt:4", tmp_path)
        assert [f.action for f in plan.faults] == [
            "fail", "flaky", "kill", "delay", "corrupt"]
        assert [f.index for f in plan.faults] == [0, 1, 2, 3, 4]
        assert plan.faults[3].arg == 1.5

    @pytest.mark.parametrize("spec", [
        "", "   ", "explode:0", "fail", "fail:x", "fail:-1",
        "delay:0", "delay:0:soon", "fail:0:1:2",
    ])
    def test_bad_specs_rejected(self, spec, tmp_path):
        with pytest.raises(FaultSpecError):
            _plan(spec, tmp_path)

    def test_from_env_unset_is_none(self):
        assert FaultPlan.from_env(environ={}) is None

    def test_from_env_reads_spec_and_state_dir(self, tmp_path):
        plan = FaultPlan.from_env(environ={
            "REPRO_FAULTS": "flaky:2",
            "REPRO_FAULTS_STATE": str(tmp_path / "state")})
        assert plan.faults == (Fault("flaky", 2),)
        assert plan.state_dir == str(tmp_path / "state")

    def test_fire_once_is_once_per_tag(self, tmp_path):
        plan = _plan("flaky:0", tmp_path)
        assert plan._fire_once("x") is True
        assert plan._fire_once("x") is False
        assert plan._fire_once("y") is True

    def test_before_execute_raises_typed_exceptions(self, tmp_path):
        plan = _plan("fail:0,flaky:1", tmp_path)
        with pytest.raises(InjectedFault):
            plan.before_execute(0)
        with pytest.raises(InjectedTransientFault):
            plan.before_execute(1)
        plan.before_execute(1)   # flaky fires once, then passes

    def test_parse_campaign_grade_actions(self, tmp_path):
        plan = _plan("kill-worker:3,torn-tail:1;corrupt-journal:2,"
                     "stall-heartbeat:0,fail-append:4", tmp_path)
        assert [f.action for f in plan.faults] == [
            "kill-worker", "torn-tail", "corrupt-journal",
            "stall-heartbeat", "fail-append"]
        assert plan.stall_heartbeats()

    def test_campaign_actions_do_not_touch_job_paths(self, tmp_path):
        # Journal-layer faults are addressed by append ordinal; the job
        # paths (before_execute, cache corruption, saboteurs) must
        # ignore them entirely.
        plan = _plan("kill-worker:0,fail-append:0,torn-tail:0", tmp_path)
        plan.before_execute(0)                      # no raise, no exit
        assert plan.corrupt_cache(0) is False
        assert plan.run_saboteur(0) is None

    def test_fail_append_is_persistent_from_its_ordinal(self, tmp_path):
        plan = _plan("fail-append:2", tmp_path)
        assert [plan.journal_fail_append(i) for i in range(4)] \
            == [False, False, True, True]
        assert not _plan("flaky:0", tmp_path).journal_fail_append(5)

    def test_journal_post_append_fires_once_per_ordinal(self, tmp_path):
        plan = _plan("torn-tail:1,corrupt-journal:1", tmp_path)
        assert plan.journal_post_append(0) == []
        assert plan.journal_post_append(1) == ["torn-tail",
                                               "corrupt-journal"]
        assert plan.journal_post_append(1) == []   # marker files: once


class TestStateDirectory:
    """A plan that makes its own state directory removes it."""

    @pytest.fixture
    def tempdir(self, tmp_path, monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        return tmp_path

    def test_a_faults_cli_run_leaves_no_state_directory(
            self, tempdir, monkeypatch, capsys):
        from repro.harness.simcli import main
        monkeypatch.chdir(tempdir)
        assert main(["kmeans", "--scale", "0.05", "--config", "small",
                     "--no-cache", "--faults", "fail:0"]) == 1
        assert "InjectedFault" in capsys.readouterr().err
        gc.collect()
        assert not list(tempdir.glob("repro-faults-*"))

    def test_a_pool_batch_recovers_then_its_directory_goes(self, tempdir):
        plan = FaultPlan.parse("flaky:0")
        state = Path(plan.state_dir)
        assert state.parent == tempdir
        report = run_batch(_jobs(2), workers=2, faults=plan)
        assert [o.status for o in report.outcomes] == ["ok", "ok"]
        assert report.outcomes[0].attempts == 2
        # The forked workers dropped their copies without removing it.
        assert (state / "fired-flaky-0").exists()
        del plan
        gc.collect()
        assert not list(tempdir.glob("repro-faults-*"))

    def test_a_given_state_directory_survives(self, tmp_path):
        plan = _plan("flaky:0", tmp_path)
        assert run_batch(_jobs(1), faults=plan).outcomes[0].attempts == 2
        del plan
        gc.collect()
        assert (tmp_path / "fault-state" / "fired-flaky-0").exists()


# --------------------------------------------------------------------------- #
# fault isolation + retry (inline path)
# --------------------------------------------------------------------------- #

class TestIsolationAndRetry:
    def test_deterministic_failure_isolated_and_never_retried(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        jobs = _jobs(3)
        report = run_batch(jobs, cache=cache,
                           faults=_plan("fail:1", tmp_path))
        assert [o.status for o in report.outcomes] == ["ok", "failed", "ok"]
        assert report.outcomes[1].attempts == 1   # deterministic: no retry
        assert "InjectedFault" in report.outcomes[1].error
        assert "injected deterministic failure" \
            in report.outcomes[1].worker_traceback
        # Satellite (b): the siblings' results were cached before anything
        # surfaced the failure.
        assert cache.get(jobs[0].fingerprint()) is not None
        assert cache.get(jobs[2].fingerprint()) is not None

    def test_flaky_job_recovers_by_retry(self, tmp_path):
        report = run_batch(_jobs(2), faults=_plan("flaky:1", tmp_path))
        assert [o.status for o in report.outcomes] == ["ok", "ok"]
        flaky = report.outcomes[1]
        assert flaky.attempts == 2 and flaky.retried
        assert report.retried == 1
        kinds = [e["kind"] for e in report.events]
        assert "job.retry" in kinds and "job.recovered" in kinds

    def test_retries_zero_turns_flaky_into_failure(self, tmp_path):
        report = run_batch(_jobs(1), retries=0,
                           faults=_plan("flaky:0", tmp_path))
        outcome = report.outcomes[0]
        assert outcome.status == "failed" and outcome.attempts == 1
        assert "InjectedTransientFault" in outcome.error

    def test_inline_kill_degrades_to_transient_and_recovers(self, tmp_path):
        report = run_batch(_jobs(1), faults=_plan("kill:0", tmp_path))
        outcome = report.outcomes[0]
        assert outcome.status == "ok" and outcome.attempts == 2

    def test_run_jobs_raises_only_after_whole_batch_cached(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        jobs = _jobs(3)
        with pytest.raises(JobExecutionError) as excinfo:
            run_jobs(jobs, cache=cache, faults=_plan("fail:0", tmp_path))
        assert excinfo.value.fingerprint == jobs[0].fingerprint()
        # Jobs 1 and 2 ran to completion and were cached despite job 0
        # failing first (the old engine lost them).
        assert cache.get(jobs[1].fingerprint()) is not None
        assert cache.get(jobs[2].fingerprint()) is not None

    def test_faulty_results_match_clean_run(self, tmp_path):
        clean = _results(run_batch(_jobs(2)))
        shaky = run_batch(_jobs(2), faults=_plan("flaky:0", tmp_path))
        assert _results(shaky) == clean   # recovery never perturbs results

    def test_fail_fast_skips_the_rest(self, tmp_path):
        report = run_batch(_jobs(3), fail_fast=True,
                           faults=_plan("fail:0", tmp_path))
        assert [o.status for o in report.outcomes] == \
            ["failed", "skipped", "skipped"]

    def test_batch_report_counts_and_summary(self, tmp_path):
        report = run_batch(_jobs(3), faults=_plan("fail:1,flaky:2", tmp_path))
        assert report.count("ok") == 2 and report.count("failed") == 1
        assert len(report.failures()) == 1
        assert report.first_failure().index == 1
        line = report.summary_line()
        assert "2 ok" in line and "1 failed" in line and "1 retried" in line


# --------------------------------------------------------------------------- #
# pool-crash recovery (the acceptance criterion)
# --------------------------------------------------------------------------- #

class TestPoolCrashRecovery:
    def test_killed_worker_recovered_with_siblings_intact(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        jobs = _jobs(4)
        report = run_batch(jobs, workers=2, cache=cache,
                           faults=_plan("kill:1", tmp_path))
        # The batch still yields a complete report: every job has a result,
        # the killed job was re-dispatched after the pool respawn.
        assert [o.status for o in report.outcomes] == ["ok"] * 4
        assert report.retried >= 1
        kinds = [e["kind"] for e in report.events]
        assert "worker.respawn" in kinds and "job.recovered" in kinds
        for job in jobs:
            assert cache.get(job.fingerprint()) is not None
        assert _results(report) == _results(run_batch(jobs))

    def test_killed_worker_without_retries_fails_cleanly(self, tmp_path):
        report = run_batch(_jobs(3), workers=2, retries=0,
                           faults=_plan("kill:0", tmp_path))
        # No retries allowed: the crash becomes per-job failures (the
        # victim plus whoever shared the broken pool), never a hang or an
        # engine crash — and untouched jobs still complete.
        assert report.count("failed") >= 1
        assert report.count("ok") + report.count("failed") == 3
        for outcome in report.outcomes:
            if outcome.status == "failed":
                assert "worker crashed" in outcome.error


# --------------------------------------------------------------------------- #
# deadlines
# --------------------------------------------------------------------------- #

class TestDeadlines:
    def test_cooperative_timeout_is_a_typed_outcome(self, tmp_path):
        report = run_batch(_jobs(2), timeout=0.0)
        for outcome in report.outcomes:
            assert outcome.status == "timeout"
            assert outcome.attempts == 1   # timeouts are never retried
            assert "SimulationTimeout" in outcome.error
        assert "job.timeout" in [e["kind"] for e in report.events]

    def test_run_jobs_surfaces_timeout_as_typed_error(self):
        with pytest.raises(JobExecutionError) as excinfo:
            run_jobs(_jobs(1), timeout=0.0)
        assert "SimulationTimeout" in str(excinfo.value)

    def test_parent_backstop_catches_wedged_worker(self, tmp_path):
        # delay:0:5 wedges job 0 *before* the cooperative guard arms, so
        # only the parent's timeout+grace backstop can reclaim it.  Job 1
        # is unaffected and completes normally.
        report = run_batch(_jobs(2), workers=2, timeout=1.0,
                           faults=_plan("delay:0:5", tmp_path))
        assert report.outcomes[0].status == "timeout"
        assert "backstop" in report.outcomes[0].error
        assert report.outcomes[1].status == "ok"
        assert "worker.respawn" in [e["kind"] for e in report.events]


# --------------------------------------------------------------------------- #
# the worker pool: a worker's crash, wedge or overrun costs only its attempt
# --------------------------------------------------------------------------- #

class TestWorkerPool:
    def test_killed_worker_costs_no_sibling_an_attempt(self, tmp_path):
        report = run_batch(_jobs(2), workers=2,
                           faults=_plan("kill:0", tmp_path))
        assert [o.status for o in report.outcomes] == ["ok", "ok"]
        assert report.outcomes[0].attempts == 2
        assert report.outcomes[1].attempts == 1

    def test_overrun_replaces_only_its_own_worker(self, tmp_path):
        report = run_batch(_jobs(2), workers=2, timeout=1.0,
                           faults=_plan("delay:0:5", tmp_path))
        assert report.outcomes[0].status == "timeout"
        assert report.outcomes[1].status == "ok"
        assert report.outcomes[1].attempts == 1
        respawns = [e for e in report.events if e["kind"] == "worker.respawn"]
        assert len(respawns) == 1
        assert respawns[0]["payload"]["reason"] == "timeout"

    def test_wedged_worker_fails_its_job(self, tmp_path, monkeypatch):
        # No --timeout: only the heartbeat watchdog can catch the wedge.
        monkeypatch.setattr(pool, "DEFAULT_HB_TIMEOUT", 1.0)
        report = run_batch(_jobs(2), workers=2, retries=0,
                           faults=_plan("worker-wedge:0", tmp_path))
        assert report.outcomes[0].status == "failed"
        assert "wedged" in report.outcomes[0].error
        assert report.outcomes[1].status == "ok"

    def test_slots_run_in_process_when_no_process_starts(self, monkeypatch):
        def refuse(self):
            raise OSError("process start refused")

        monkeypatch.setattr(WorkerPool, "_start_process", refuse)
        jobs = _jobs(2)
        report = run_batch(jobs, workers=2)
        assert _results(report) == _results(run_batch(jobs))
        inline = [e["payload"]["slot"] for e in report.events
                  if e["kind"] == "worker.inline"]
        assert sorted(inline) == [0, 1]

    def test_pool_threads_share_the_batch_state(self):
        # More pool threads than cores and a tiny switch interval: a lost
        # update in the shared outcome bookkeeping would show up here.
        jobs = [_job(scale=0.02, seed=seed) for seed in range(8)]
        seen, finished = [], []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            report = run_batch(jobs, workers=4,
                               progress=lambda done, total: seen.append(done),
                               on_outcome=finished.append)
        finally:
            sys.setswitchinterval(interval)
        assert seen == list(range(1, 9))
        assert sorted(outcome.index for outcome in finished) == list(range(8))
        assert [o.status for o in report.outcomes] == ["ok"] * 8

    def test_no_worker_outlives_its_batch(self, tmp_path):
        run_batch(_jobs(3), workers=2, faults=_plan("kill:1", tmp_path))
        assert multiprocessing.active_children() == []

    def test_close_kills_a_busy_worker_after_its_grace(self, tmp_path):
        # A drain must not wait out a long attempt: close() gives a busy
        # worker 2 s, then kills it, and the attempt ends as a crash.
        workers = WorkerPool(1, faults=_plan("delay:0:30", tmp_path))
        workers.start()
        attempts = []
        runner = threading.Thread(
            target=lambda: attempts.append(workers.run(0, _job())))
        runner.start()
        time.sleep(0.5)
        started = time.monotonic()
        workers.close()
        assert time.monotonic() - started < 3.0
        runner.join(timeout=5.0)
        assert not runner.is_alive()
        assert attempts[0].crash == "died"
        assert multiprocessing.active_children() == []

    def test_concurrent_slot_stops_take_turns(self):
        # close() and a run() replacing the worker close killed both stop
        # the slot; two pipe closes at once closed one descriptor twice.
        barrier = threading.Barrier(2, timeout=0.5)
        together = []

        class Pipe:
            def close(self):
                try:
                    barrier.wait()
                    together.append(True)
                except threading.BrokenBarrierError:
                    pass

        class Process:
            def kill(self):
                pass

            def join(self):
                pass

        slot = pool._Slot(0)
        slot.process, slot.conn = Process(), Pipe()
        stoppers = [threading.Thread(target=slot.stop) for _ in range(2)]
        for thread in stoppers:
            thread.start()
        for thread in stoppers:
            thread.join(timeout=5.0)
        assert not any(thread.is_alive() for thread in stoppers)
        assert together == []


# --------------------------------------------------------------------------- #
# cache corruption injection
# --------------------------------------------------------------------------- #

class TestCacheCorruption:
    def test_corrupted_entry_misses_then_recomputes(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        jobs = _jobs(1)
        first = run_batch(jobs, cache=cache,
                          faults=_plan("corrupt:0", tmp_path))
        assert first.outcomes[0].status == "ok"
        assert "cache.corrupted" in [e["kind"] for e in first.events]
        # The scribbled entry is a miss, not a crash...
        assert cache.get(jobs[0].fingerprint()) is None
        # ...and a faultless re-run recomputes the identical result.
        again = run_batch(jobs, cache=cache)
        assert again.outcomes[0].status == "ok"
        assert _results(again) == _results(first)


# --------------------------------------------------------------------------- #
# service-grade faults (daemon / client / worker injection points)
# --------------------------------------------------------------------------- #

class TestServiceFaults:
    def test_service_actions_parse(self, tmp_path):
        plan = _plan("slow-client:2:0.5,socket-drop:4,worker-wedge:0",
                     tmp_path)
        assert [f.action for f in plan.faults] == [
            "slow-client", "socket-drop", "worker-wedge"]
        assert plan.faults[0].arg == 0.5

    def test_slow_client_fires_once_with_default_stall(self, tmp_path):
        plan = _plan("slow-client:3", tmp_path)
        assert plan.service_slow_client(0) is None
        assert plan.service_slow_client(3) == 1.0
        # A retried submission replaying the same frame ordinal is not
        # stalled again (shared marker files).
        assert plan.service_slow_client(3) is None

    def test_socket_drop_fires_once_per_ordinal(self, tmp_path):
        plan = _plan("socket-drop:1,socket-drop:5", tmp_path)
        assert not plan.service_socket_drop(0)
        assert plan.service_socket_drop(1)
        assert not plan.service_socket_drop(1)
        assert plan.service_socket_drop(5)

    def test_once_state_is_shared_across_plan_instances(self, tmp_path):
        # Two processes parsing the same spec against the same state dir
        # (daemon incarnations across a restart) share fired-once state.
        first = _plan("socket-drop:2", tmp_path)
        second = _plan("socket-drop:2", tmp_path)
        assert first.service_socket_drop(2)
        assert not second.service_socket_drop(2)

    def test_worker_wedge_is_deliberately_not_once(self, tmp_path):
        # A poison job must wedge its worker on *every* attempt — that
        # repetition is what drives the circuit breaker to open.
        plan = _plan("worker-wedge:0", tmp_path)
        assert plan.service_worker_wedge(0)
        assert plan.service_worker_wedge(0)
        assert not plan.service_worker_wedge(1)


# --------------------------------------------------------------------------- #
# cluster-grade faults (the federation layer's injected partition)
# --------------------------------------------------------------------------- #

class TestPartitionFaults:
    def test_partition_spec_parses(self, tmp_path):
        plan = _plan("partition:0-1|2:8", tmp_path)
        fault = plan.faults[0]
        assert fault.action == "partition"
        assert fault.partition_groups() == (frozenset({0, 1}),
                                            frozenset({2}))
        assert plan.partition_spec() == (frozenset({0, 1}),
                                         frozenset({2}), 8)

    @pytest.mark.parametrize("spec", [
        "partition:0|1",          # no heal round
        "partition:0|1:0",        # heal round must be >= 1
        "partition:0|1:soon",     # non-numeric heal round
        "partition:0-1:4",        # only one group
        "partition:0|1|2:4",      # three groups
        "partition:0-1|1:4",      # overlapping groups
        "partition:|1:4",         # empty group
        "partition:a-b|2:4",      # non-numeric node index
    ])
    def test_bad_partition_specs_rejected(self, spec, tmp_path):
        with pytest.raises(FaultSpecError):
            _plan(spec, tmp_path)

    def test_partition_blocks_is_symmetric_and_scoped(self, tmp_path):
        plan = _plan("partition:0-1|2:8", tmp_path)
        # Cross-group traffic is blocked in both directions...
        assert plan.partition_blocks(0, 2, rounds=0)
        assert plan.partition_blocks(2, 0, rounds=0)
        assert plan.partition_blocks(1, 2, rounds=3)
        # ...same-group and same-node traffic never is...
        assert not plan.partition_blocks(0, 1, rounds=0)
        assert not plan.partition_blocks(2, 2, rounds=0)
        # ...and nodes outside both groups are unaffected.
        assert not plan.partition_blocks(0, 3, rounds=0)

    def test_partition_heals_at_the_named_round(self, tmp_path):
        # The partition is a window over the asking daemon's own gossip
        # round counter, not a once-only marker: it stays up through
        # round heal-1 and is gone from round heal on.
        plan = _plan("partition:0|1:8", tmp_path)
        assert plan.partition_blocks(0, 1, rounds=7)
        assert not plan.partition_blocks(0, 1, rounds=8)
        assert not plan.partition_blocks(0, 1, rounds=100)

    def test_no_partition_means_no_blocking(self, tmp_path):
        assert _plan("flaky:0", tmp_path).partition_spec() is None
        assert not _plan("flaky:0", tmp_path).partition_blocks(0, 1, 0)
