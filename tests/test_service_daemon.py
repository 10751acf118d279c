"""End-to-end tests for the scheduler daemon over a real unix socket.

Each test boots a real :class:`SchedulerDaemon` (asyncio, in a thread)
with real worker subprocesses and drives it with the synchronous
:class:`ServiceClient` — the exact production wiring minus the console
scripts.  The heavier multi-incarnation story (SIGKILLs, restarts,
concurrent clients, bitwise convergence) lives in the service chaos
drill (``tests/test_service_chaos.py``).
"""

import asyncio
import io
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import pytest

from helpers import usage_error
from repro.design.journal import Journal, replay_journal
from repro.design.store import JobStore
from repro.harness.cache import ResultCache
from repro.harness.exit_codes import (EXIT_EXHAUSTED, EXIT_OK, EXIT_PARTIAL,
                                      EXIT_SHED)
from repro.harness.faults import FaultPlan, child_env
from repro.harness.jobs import JobError, SimJob
from repro.harness.pool import WorkerPool
from repro.service.client import ServiceClient, ServiceError, _exit_code
from repro.service.daemon import (EVENTS_JOURNAL, QUEUE_JOURNAL,
                                  SchedulerDaemon, main)
from repro.service.protocol import (DONE, FAILED, QUARANTINED, QUEUED,
                                    SHED, TERMINAL)
from repro.sim.config import GPUConfig

SMALL = GPUConfig.small()


def _job(seed=1):
    return SimJob(names=("kmeans",), scale=0.02, seed=seed, config=SMALL)


def _start(tmp_path, **kwargs):
    """A live daemon on a tmp unix socket, plus its eventual exit code."""
    kwargs.setdefault("workers", 1)
    kwargs.setdefault("drain_grace", 10.0)
    daemon = SchedulerDaemon(state_dir=tmp_path / "state",
                             cache_dir=tmp_path / "cache",
                             log=io.StringIO(), **kwargs)
    outcome = {}

    def runner():
        outcome["exit"] = asyncio.run(daemon.serve())

    thread = threading.Thread(target=runner, daemon=True,
                              name="test-repro-serve")
    thread.start()
    deadline = time.monotonic() + 15.0
    while not daemon.socket_path.exists():
        assert time.monotonic() < deadline, "daemon never bound its socket"
        time.sleep(0.02)
    return daemon, thread, outcome


def _stop(daemon, thread, outcome):
    with ServiceClient(daemon.socket_path) as client:
        client.drain()
    thread.join(timeout=30.0)
    assert not thread.is_alive(), "daemon did not drain"
    return outcome["exit"]


class TestDaemonLifecycle:
    def test_submit_watch_dedup_result_status_drain(self, tmp_path):
        daemon, thread, outcome = _start(tmp_path)
        try:
            with ServiceClient(daemon.socket_path) as client:
                response = client.submit("t:0", _job().to_payload(),
                                         tenant="alice")
                assert response["state"] == QUEUED

                frames = client.watch(["t:0"])
                assert frames["t:0"]["state"] == DONE
                cycles = frames["t:0"]["cycles"]
                assert cycles > 0

                # Same id again: idempotent duplicate, answered from the
                # job table, nothing re-enqueued.
                again = client.submit("t:0", _job().to_payload())
                assert again["duplicate"] and again["state"] == DONE
                assert again["cycles"] == cycles

                # New id, same fingerprint: the cache answers instantly
                # and the submit response is already terminal.
                fast = client.submit("t:1", _job().to_payload())
                assert fast["state"] == DONE and fast["cached"]
                assert fast["cycles"] == cycles

                result = client.result("t:0")
                assert result["state"] == DONE
                assert result["result"]["cycles"] == cycles

                status = client.status()
                assert status["healthy"] and not status["draining"]
                assert status["jobs"][DONE] == 2
                assert status["journal_append_errors"] == 0

                bad = client.request({"op": "explode"})
                assert not bad["ok"] and "unknown op" in bad["error"]

                missing = client.result("nobody")
                assert not missing["ok"]
        finally:
            assert _stop(daemon, thread, outcome) == EXIT_OK
        # The journal tells the whole story: one submit per id, exactly
        # one terminal record each; a healthy drain writes no snapshot.
        records = replay_journal(tmp_path / "state" / QUEUE_JOURNAL).records
        kinds = [(r["type"], r["id"]) for r in records
                 if r["type"] in ("submit", "done")]
        assert kinds.count(("submit", "t:0")) == 1
        assert kinds.count(("done", "t:0")) == 1
        assert kinds.count(("done", "t:1")) == 1
        assert not (tmp_path / "state" / "snapshot.json").exists()

    def test_a_settled_job_leaves_no_event_or_retry_count_behind(
            self, tmp_path):
        # Without --trace the events live only in events.jsonl, and the
        # in-band retry count of a job goes when the job settles.
        plan = FaultPlan.parse("flaky:0", state_dir=str(tmp_path / "faults"))
        daemon, thread, outcome = _start(tmp_path, faults=plan)
        try:
            with ServiceClient(daemon.socket_path) as client:
                client.submit("r:0", _job(seed=53).to_payload())
                assert client.watch(["r:0"])["r:0"]["state"] == DONE
                assert not daemon.events
                assert daemon._retries == {}
        finally:
            assert _stop(daemon, thread, outcome) == EXIT_OK
        kinds = [record.get("kind") for record in replay_journal(
            tmp_path / "state" / EVENTS_JOURNAL).records]
        assert kinds.count("job.requeue") == 1 and "job.done" in kinds
        (tmp_path / "traced").mkdir()
        traced = SchedulerDaemon(state_dir=tmp_path / "traced",
                                 trace=tmp_path / "trace.json",
                                 log=io.StringIO())
        traced.event("probe")
        assert [event["kind"] for event in traced.events] == ["probe"]

    def test_out_of_range_job_is_refused_at_admission(self, tmp_path):
        # ("static", 0) has a valid shape but no worker could run it: it
        # is refused like a shape error, never queued to fail later.
        daemon, thread, outcome = _start(tmp_path)
        try:
            payload = {**_job().to_payload(), "policy": ["static", 0]}
            with ServiceClient(daemon.socket_path) as client:
                response = client.submit("bad:0", payload)
                assert not response["ok"]
                assert "bad job payload" in response["error"]
                assert "must be >= 1" in response["error"]
                assert client.status()["queued"] == 0
        finally:
            assert _stop(daemon, thread, outcome) == EXIT_OK
        records = replay_journal(tmp_path / "state" / QUEUE_JOURNAL).records
        assert not [r for r in records if r.get("id") == "bad:0"]

    @pytest.mark.parametrize("limit, shown", [
        ("x", "'x'"), (2.5, "2.5"), (True, "True"), ({"kmeans": 1.5}, "1.5"),
    ])
    def test_non_int_static_limit_is_refused_naming_it(self, limit, shown):
        # True would otherwise run as limit 1 under another fingerprint;
        # "x" used to fail inside dict() with a message about sequences.
        job = replace(_job(), policy=("static", limit))
        with pytest.raises(JobError) as caught:
            job.check()
        assert str(caught.value) == (f"CTA limit for 'kmeans' must be an "
                                     f"int, got {shown}")

    def test_non_int_static_limit_is_refused_at_admission(self, tmp_path):
        daemon, thread, outcome = _start(tmp_path)
        try:
            with ServiceClient(daemon.socket_path) as client:
                for index, limit in enumerate(["x", 2.5, True]):
                    payload = {**_job().to_payload(),
                               "policy": ["static", limit]}
                    response = client.submit(f"bad:{index}", payload)
                    assert not response["ok"]
                    assert "bad job payload" in response["error"]
                    assert (f"CTA limit for 'kmeans' must be an int, got "
                            f"{limit!r}") in response["error"]
                assert client.status()["queued"] == 0
        finally:
            assert _stop(daemon, thread, outcome) == EXIT_OK

    def test_rate_limit_sheds_with_retry_after(self, tmp_path):
        daemon, thread, outcome = _start(tmp_path, rate=0.001, burst=1)
        try:
            with ServiceClient(daemon.socket_path) as client:
                first = client.submit("r:0", _job(seed=11).to_payload(),
                                      tenant="hog", shed_retries=0)
                assert first["state"] == QUEUED
                second = client.submit("r:1", _job(seed=12).to_payload(),
                                       tenant="hog", shed_retries=0)
                assert second["state"] == SHED
                assert second["reason"] == "rate-limit"
                assert second["retry_after"] > 0
                # Another tenant's bucket is untouched: fair share.
                other = client.submit("r:2", _job(seed=13).to_payload(),
                                      tenant="polite", shed_retries=0)
                assert other["state"] == QUEUED
                client.watch(["r:0", "r:2"])
        finally:
            assert _stop(daemon, thread, outcome) == EXIT_OK
        events = replay_journal(
            tmp_path / "state" / "events.jsonl").records
        assert any(e.get("kind") == "admission.shed"
                   and e.get("reason") == "rate-limit" for e in events)

    def test_full_queue_sheds_with_retry_after(self, tmp_path):
        # The one worker is held by a slow job and the queue holds one:
        # the next submission finds the queue full.
        plan = FaultPlan.parse("delay:0:2",
                               state_dir=str(tmp_path / "faults"))
        daemon, thread, outcome = _start(tmp_path, faults=plan,
                                         queue_depth=1)
        try:
            with ServiceClient(daemon.socket_path) as client:
                client.submit("q:0", _job(seed=41).to_payload())
                deadline = time.monotonic() + 10.0
                while client.status()["inflight"] < 1:
                    assert time.monotonic() < deadline, "q:0 never ran"
                    time.sleep(0.02)
                queued = client.submit("q:1", _job(seed=42).to_payload(),
                                       shed_retries=0)
                assert queued["state"] == QUEUED
                full = client.submit("q:2", _job(seed=43).to_payload(),
                                     shed_retries=0)
                assert full["state"] == SHED
                assert full["reason"] == "queue-full"
                assert full["retry_after"] > 0
                client.watch(["q:0", "q:1"])
        finally:
            assert _stop(daemon, thread, outcome) == EXIT_OK
        events = replay_journal(
            tmp_path / "state" / "events.jsonl").records
        assert any(e.get("kind") == "admission.shed"
                   and e.get("reason") == "queue-full" for e in events)

    def test_draining_daemon_sheds_submissions(self, tmp_path):
        # A slow job keeps the drain waiting, so the daemon still
        # answers the submit that follows it.
        plan = FaultPlan.parse("delay:0:1",
                               state_dir=str(tmp_path / "faults"))
        daemon, thread, outcome = _start(tmp_path, faults=plan)
        try:
            with ServiceClient(daemon.socket_path) as client:
                client.submit("d:0", _job(seed=21).to_payload())
                deadline = time.monotonic() + 10.0
                while client.status()["inflight"] < 1:
                    assert time.monotonic() < deadline, "d:0 never ran"
                    time.sleep(0.02)
                client.drain()
                response = client.submit("d:1", _job(seed=22).to_payload(),
                                         shed_retries=0)
                assert response["state"] == SHED
                assert response["reason"] == "draining"
        finally:
            thread.join(timeout=30.0)
            assert outcome["exit"] == EXIT_OK

    def test_socket_drop_fault_is_survived_by_reconnect(self, tmp_path):
        from repro.harness.faults import FaultPlan
        plan = FaultPlan.parse("socket-drop:1",
                               state_dir=str(tmp_path / "faults"))
        daemon, thread, outcome = _start(tmp_path, faults=plan)
        try:
            with ServiceClient(daemon.socket_path) as client:
                assert client.status()["healthy"]        # frame 0
                assert client.status()["healthy"]        # frame 1: dropped
                assert client.reconnects >= 1
        finally:
            assert _stop(daemon, thread, outcome) == EXIT_OK

    def test_wedged_worker_is_killed_and_job_quarantined(self, tmp_path,
                                                         monkeypatch):
        # The poison-job story, minus the restarts: the only submission
        # gets dispatch ordinal 0, the worker-wedge fault silences the
        # worker, the watchdog kills it, and with threshold 1 the
        # breaker quarantines the fingerprint immediately.
        monkeypatch.setenv("REPRO_FAULTS", "worker-wedge:0")
        monkeypatch.setenv("REPRO_FAULTS_STATE", str(tmp_path / "faults"))
        daemon, thread, outcome = _start(tmp_path, breaker_threshold=1,
                                         hb_timeout=1.0)
        try:
            with ServiceClient(daemon.socket_path) as client:
                response = client.submit("p:0", _job(seed=31).to_payload())
                assert response["state"] == QUEUED
                frames = client.watch(["p:0"])
                assert frames["p:0"]["state"] == QUARANTINED
                assert "circuit breaker" in frames["p:0"]["error"]
                # Re-submitting the poison fingerprint is refused at the
                # door now — no worker ever sees it again.
                refused = client.submit("p:1", _job(seed=31).to_payload())
                assert refused["state"] == QUARANTINED
                assert not refused["accepted"]
                status = client.status()
                assert status["wedges"] >= 1
                assert status["breaker_open"] == 1
        finally:
            assert _stop(daemon, thread, outcome) == EXIT_OK
        events = replay_journal(
            tmp_path / "state" / "events.jsonl").records
        kinds = {e.get("kind") for e in events}
        assert "breaker.open" in kinds and "worker.respawn" in kinds

    def test_faults_flag_reaches_the_workers(self, tmp_path, monkeypatch):
        # repro-serve --faults: the daemon's own plan, with REPRO_FAULTS
        # unset, must wedge the worker that runs dispatch ordinal 0.
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        monkeypatch.delenv("REPRO_FAULTS_STATE", raising=False)
        plan = FaultPlan.parse("worker-wedge:0",
                               state_dir=str(tmp_path / "faults"))
        daemon, thread, outcome = _start(tmp_path, faults=plan,
                                         breaker_threshold=1,
                                         hb_timeout=1.0)
        try:
            with ServiceClient(daemon.socket_path) as client:
                client.submit("f:0", _job(seed=33).to_payload())
                frame = client.watch(["f:0"])["f:0"]
                status = client.status()
        finally:
            assert _stop(daemon, thread, outcome) == EXIT_OK
        assert frame["state"] == QUARANTINED
        assert status["wedges"] >= 1
        assert not any(slot["inline"] for slot in status["workers_detail"])


class TestInlineFallback:
    """A host that cannot spawn workers degrades to in-process slots."""

    @staticmethod
    def _no_spawn(monkeypatch):
        def refuse(*args, **kwargs):
            raise OSError("spawning is not allowed here")
        monkeypatch.setattr(WorkerPool, "_start_process", refuse)

    def test_inline_job_matches_in_process_run_and_is_cached(
            self, tmp_path, monkeypatch):
        self._no_spawn(monkeypatch)
        job = _job(seed=51)
        daemon, thread, outcome = _start(tmp_path)
        try:
            with ServiceClient(daemon.socket_path) as client:
                slots = client.status()["workers_detail"]
                assert slots and all(slot["inline"] for slot in slots)
                assert client.submit("i:0", job.to_payload())["state"] \
                    == QUEUED
                frame = client.watch(["i:0"])["i:0"]
        finally:
            assert _stop(daemon, thread, outcome) == EXIT_OK
        expected = job.execute()
        assert frame["state"] == DONE
        assert (frame["cycles"], frame["ipc"]) == (expected.cycles,
                                                   expected.ipc)
        cached = ResultCache(tmp_path / "cache").get(job.fingerprint())
        assert cached is not None
        assert (cached.cycles, cached.ipc) == (expected.cycles, expected.ipc)

    def test_inline_wedge_is_a_crash_the_breaker_quarantines(
            self, tmp_path, monkeypatch):
        # An inline slot cannot be wedged and killed, so worker-wedge
        # degrades to a transient crash; with threshold 1 the breaker
        # quarantines on the first one.
        from repro.harness.faults import FaultPlan
        self._no_spawn(monkeypatch)
        plan = FaultPlan.parse("worker-wedge:0",
                               state_dir=str(tmp_path / "faults"))
        daemon, thread, outcome = _start(tmp_path, faults=plan,
                                         breaker_threshold=1)
        try:
            with ServiceClient(daemon.socket_path) as client:
                client.submit("w:0", _job(seed=52).to_payload())
                frame = client.watch(["w:0"])["w:0"]
                assert client.status()["wedges"] == 1
        finally:
            assert _stop(daemon, thread, outcome) == EXIT_OK
        assert frame["state"] == QUARANTINED


def _alive(pid):
    """Is ``pid`` a live process?  A zombie is not (nobody may reap an
    orphan in a container)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return True
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


class TestForkedWorkers:
    """Workers are forked from the daemon: they must neither outlive it
    nor signal it.  The daemon runs as a subprocess, because only an
    event loop on the main thread installs signal handlers."""

    @staticmethod
    def _spawn(tmp_path):
        """A ``repro-serve --workers 2`` process with both workers up."""
        socket_path = tmp_path / "state" / "serve.sock"
        with open(tmp_path / "daemon.log", "wb") as log:
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro.service.daemon",
                 "--state-dir", str(tmp_path / "state"),
                 "--cache-dir", str(tmp_path / "cache"), "--workers", "2"],
                env=child_env(""), stdout=log, stderr=log)
        deadline = time.monotonic() + 30.0
        while True:
            assert proc.poll() is None, "repro-serve exited"
            assert time.monotonic() < deadline, "workers never came up"
            try:
                with ServiceClient(socket_path,
                                   connect_attempts=1) as client:
                    slots = client.status()["workers_detail"]
            except (ServiceError, OSError):
                slots = []
            if len(slots) == 2 and all(slot["alive"] and not slot["inline"]
                                       for slot in slots):
                return proc, socket_path, [slot["pid"] for slot in slots]
            time.sleep(0.05)

    def test_workers_exit_when_the_daemon_is_killed(self, tmp_path):
        proc, _, pids = self._spawn(tmp_path)
        proc.kill()
        proc.wait()
        deadline = time.monotonic() + 2.0
        while any(_alive(pid) for pid in pids):
            assert time.monotonic() < deadline, "workers outlived the daemon"
            time.sleep(0.05)

    def test_signalled_worker_does_not_drain_the_daemon(self, tmp_path):
        proc, socket_path, pids = self._spawn(tmp_path)
        try:
            os.kill(pids[0], signal.SIGTERM)
            time.sleep(0.5)
            with ServiceClient(socket_path) as client:
                client.submit("s:0", _job(seed=61).to_payload())
                assert client.watch(["s:0"])["s:0"]["state"] == DONE
            events = replay_journal(
                tmp_path / "state" / "events.jsonl").records
            assert "daemon.drain" not in {e.get("kind") for e in events}
            with ServiceClient(socket_path) as client:
                client.drain()
            assert proc.wait(timeout=30) == EXIT_OK
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()


class TestRecovery:
    def test_pending_jobs_requeue_and_finish_after_restart(self, tmp_path):
        # Forge incarnation 1 by hand: a journaled submit with no
        # terminal record (the daemon was SIGKILLed mid-job).
        state = tmp_path / "state"
        state.mkdir(parents=True)
        job = _job(seed=41)
        table = JobStore(state, worker="forged")
        table.append("submit", id="z:0", tenant="t",
                     fingerprint=job.fingerprint(), ordinal=0,
                     job=job.to_payload())
        daemon, thread, outcome = _start(tmp_path)
        try:
            with ServiceClient(daemon.socket_path) as client:
                frames = client.watch(["z:0"])
                assert frames["z:0"]["state"] == DONE
        finally:
            assert _stop(daemon, thread, outcome) == EXIT_OK

    def test_recovered_poison_with_open_breaker_is_quarantined(self,
                                                               tmp_path):
        # Crash records are the breaker's memory: enough of them in the
        # journal and the next incarnation quarantines the job at
        # recovery, before any worker is risked.
        state = tmp_path / "state"
        state.mkdir(parents=True)
        job = _job(seed=42)
        table = JobStore(state, worker="forged")
        table.append("submit", id="z:1", tenant="t",
                     fingerprint=job.fingerprint(), ordinal=0,
                     job=job.to_payload())
        for _ in range(3):
            table.append("crash", id="z:1", fingerprint=job.fingerprint(),
                         error="killed worker", wedged=True)
        daemon = SchedulerDaemon(state_dir=state,
                                 cache_dir=tmp_path / "cache",
                                 log=io.StringIO())
        assert daemon.recover() == 0
        record = daemon.table.jobs["z:1"]
        assert record.state == QUARANTINED
        assert record.crashes == 3
        assert daemon.breaker.is_open(job.fingerprint())

    def test_drain_does_not_inflate_crash_counts(self, tmp_path):
        # Two journaled crashes (threshold 3), then the job finished.  A
        # drained incarnation in between must leave the next one reading
        # two crashes, not the journal's plus a snapshot's copy of them.
        state = tmp_path / "state"
        state.mkdir(parents=True)
        job = _job(seed=43)
        fingerprint = job.fingerprint()
        journal = Journal(state / QUEUE_JOURNAL, worker="forged")
        journal.append("submit", id="z:2", tenant="t",
                       fingerprint=fingerprint, ordinal=0,
                       job=job.to_payload())
        for _ in range(2):
            journal.append("crash", id="z:2", fingerprint=fingerprint,
                           error="killed worker", wedged=True)
        journal.append("done", id="z:2", fingerprint=fingerprint,
                       cycles=5, ipc=1.0)
        daemon, thread, outcome = _start(tmp_path)
        assert _stop(daemon, thread, outcome) == EXIT_OK
        second = SchedulerDaemon(state_dir=state,
                                 cache_dir=tmp_path / "cache",
                                 log=io.StringIO())
        second.recover()
        assert second.table.jobs["z:2"].crashes == 2
        assert not second.breaker.is_open(fingerprint)


class TestJobTable:
    def test_fold_is_idempotent_and_first_terminal_wins(self, tmp_path):
        table = JobStore(tmp_path, worker="w")
        table.append("submit", id="a", tenant="t", fingerprint="fp",
                     ordinal=0, job={})
        table.append("submit", id="a", tenant="t", fingerprint="fp",
                     ordinal=0, job={})
        assert len(table.order) == 1
        table.append("done", id="a", cycles=10, ipc=1.0)
        table.append("failed", id="a", error="late")
        job = table.jobs["a"]
        assert job.state == DONE and job.cycles == 10
        # Terminal records for unknown ids are ignored, not crashes.
        table.append("done", id="ghost")
        assert "ghost" not in table.jobs

    def test_snapshot_round_trips_through_load(self, tmp_path):
        # The disk fills after two appends: the store keeps folding in
        # memory, snapshots when it stops, and a fresh store folds
        # snapshot + journal to the same state, even after the journal
        # is truncated (the snapshot is sufficient).
        plan = FaultPlan.parse("fail-append:2",
                               state_dir=str(tmp_path / "faults"))
        table = JobStore(tmp_path, worker="w", faults=plan)
        table.append("submit", id="a", tenant="t", fingerprint="fp",
                     ordinal=0, job={"scale": 1})
        table.append("done", id="a", fingerprint="fp", cycles=5, ipc=2.0)
        with pytest.warns(RuntimeWarning, match="not appendable"):
            table.append("submit", id="b", tenant="t", fingerprint="fq",
                         ordinal=1, job={"scale": 2})
        assert table.close()
        for truncate in (False, True):
            if truncate:
                (tmp_path / QUEUE_JOURNAL).write_bytes(b"")
            reloaded = JobStore(tmp_path, worker="w2").refresh()
            assert reloaded.jobs["a"].state == DONE
            assert reloaded.jobs["b"].state not in TERMINAL
            assert [job.id for job in reloaded.ordered()
                    if job.state not in TERMINAL] == ["b"]
            assert reloaded.next_index == 2


class TestResultFrames:
    @pytest.mark.parametrize("rid", [[1], {}, 7, None])
    def test_a_non_string_id_is_a_bad_request(self, tmp_path, rid):
        # A list or object id used to raise TypeError in the table lookup
        # and close the client's connection.
        daemon = SchedulerDaemon(state_dir=tmp_path / "state",
                                 cache_dir=tmp_path / "cache",
                                 log=io.StringIO())
        assert daemon._respond("result", {"op": "result", "id": rid}) == {
            "ok": False, "op": "result", "error": "result needs a string id"}
        assert daemon._respond("result", {"op": "result", "id": "z:9"}) == {
            "ok": False, "op": "result", "error": "unknown job id 'z:9'"}


@pytest.mark.parametrize("module", ["repro.service.daemon",
                                    "repro.service.audit",
                                    "repro.service.client"])
def test_service_modules_run_once_under_python_m(module):
    # The package used to import every module eagerly, so runpy warned
    # and ran the requested module a second time as __main__.
    proc = subprocess.run([sys.executable, "-W", "error", "-m", module,
                           "--help"], env=child_env(), capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout.startswith("usage: ")


class TestServeOptions:
    """``repro-serve`` refuses an out-of-range option as a usage error
    before it binds its socket or forks a worker."""

    @pytest.fixture
    def served(self, monkeypatch):
        served = []

        async def serve(daemon):
            served.append(daemon)
            return EXIT_OK

        monkeypatch.setattr(SchedulerDaemon, "serve", serve)
        return served

    @pytest.mark.parametrize("flag,value", [
        ("--workers", "0"), ("--queue-depth", "0"),
        ("--breaker-threshold", "0"), ("--rate", "0"), ("--burst", "0"),
        ("--hb-timeout", "0"), ("--gossip-interval", "0"),
        ("--peer-ttl", "0"), ("--retries", "-1"), ("--timeout", "-1"),
        ("--drain-grace", "-1"), ("--breaker-cooldown", "-1"),
    ])
    def test_out_of_range_option_exits_2(self, tmp_path, capsys, served,
                                         flag, value):
        state = tmp_path / "state"
        with pytest.raises(SystemExit) as exit_info:
            main(["--state-dir", str(state), flag, value])
        assert exit_info.value.code == 2
        name = flag.lstrip("-").replace("-", "_")
        assert f"{name} must be" in capsys.readouterr().err
        assert served == [] and not state.exists()

    @pytest.mark.parametrize("argv, env, message", [
        (["--faults", "explode:0"], None, "argument --faults: bad fault spec"),
        ([], "explode:0", "bad fault spec in $REPRO_FAULTS"),
    ])
    def test_bad_fault_spec_exits_2(self, tmp_path, monkeypatch, capsys,
                                    served, argv, env, message):
        if env:
            monkeypatch.setenv("REPRO_FAULTS", env)
        state = tmp_path / "state"
        assert message in usage_error(
            main, ["--state-dir", str(state), *argv], capsys)
        assert served == [] and not state.exists()

    def test_boundary_values_are_accepted(self, tmp_path, served):
        assert main(["--state-dir", str(tmp_path / "state"),
                     "--retries", "0", "--timeout", "0",
                     "--drain-grace", "0", "--breaker-cooldown", "0"]) \
            == EXIT_OK
        daemon, = served
        assert daemon.breaker.cooldown is None   # 0 = quarantine forever


class TestSubmitOptions:
    """``repro-submit`` refuses a usage error before it connects."""

    DESIGN = str(Path(__file__).resolve().parents[1] / "examples"
                 / "lcs_threshold.toml")

    @pytest.fixture
    def submit(self, monkeypatch):
        from repro.service import client as submit_cli

        def connect(*args, **kwargs):
            raise AssertionError("repro-submit connected on a usage error")

        monkeypatch.setattr(submit_cli, "ServiceClient", connect)
        return submit_cli.main

    @pytest.mark.parametrize("argv, message", [
        (["--scale", "0"], "--scale must be > 0, got 0.0"),
        (["--seed", "-1"], "--seed must be >= 0, got -1"),
        (["--backend", "vector"], "unrecognized arguments: --backend"),
        (["--faults", "explode:0"], "argument --faults: bad fault spec"),
    ])
    def test_out_of_range_option_exits_2(self, capsys, submit, argv,
                                         message):
        assert message in usage_error(submit, [self.DESIGN, *argv], capsys)

    def test_a_design_it_cannot_compile_exits_2(self, tmp_path, capsys,
                                                submit):
        # A missing file used to end in a FileNotFoundError traceback.
        missing = tmp_path / "missing.toml"
        assert f"cannot read design file {missing}" in usage_error(
            submit, [str(missing)], capsys)
        bad = tmp_path / "bad.toml"
        bad.write_text("[design\n")
        assert f"bad design file {bad}" in usage_error(
            submit, [str(bad)], capsys)
        unknown = tmp_path / "unknown.toml"
        unknown.write_text('[design]\nname = "u"\n\n[[design.factor]]\n'
                           'name = "bench"\nlevels = ["nonesuch"]\n')
        err = usage_error(submit, [str(unknown)], capsys)
        assert f"cannot compile design file {unknown}" in err
        assert "unknown benchmark 'nonesuch'" in err


class TestExitCodes:
    @pytest.mark.parametrize("states,expected", [
        ({"a": DONE, "b": DONE}, EXIT_OK),
        ({"a": DONE, "b": FAILED}, EXIT_PARTIAL),
        ({"a": FAILED, "b": QUARANTINED}, EXIT_EXHAUSTED),
        ({"a": SHED, "b": QUARANTINED}, EXIT_SHED),
        ({"a": DONE, "b": QUEUED}, EXIT_PARTIAL),
    ])
    def test_precedence(self, states, expected):
        assert _exit_code(states) == expected

    def test_terminal_states_are_the_protocol_ones(self):
        assert set(TERMINAL) == {DONE, FAILED, QUARANTINED}
