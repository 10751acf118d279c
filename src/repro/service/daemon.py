"""The always-on scheduler daemon behind ``repro-serve``.

An asyncio server speaking the NDJSON protocol
(:mod:`repro.service.protocol`) on one address (``--socket``): a unix
socket path (default ``STATE_DIR/serve.sock``) or ``host:port`` for
TCP.  The daemon owns:

* a **durable submission queue** — a :class:`~repro.design.store.JobStore`
  on the state directory: every accepted job is a ``submit`` record in
  its write-ahead journal before the client hears "queued"; terminal
  states (``done`` / ``failed`` / ``quarantined``) and worker crashes
  (``crash``) are journaled the same way, so a SIGKILL at any byte
  loses nothing: the next incarnation re-folds the journal and
  re-queues whatever lacks a terminal record (re-dispatch hits the
  result cache, so recovery is idempotent *and* cheap);
* **admission control** (:mod:`repro.service.admission`) — circuit
  breaker, per-tenant token buckets, bounded fair-share queue; refusals
  are explicit shed responses, never silent drops;
* a **worker pool** (:class:`repro.harness.pool.WorkerPool`, the one
  the batch engine uses) — forked, heartbeat-watchdogged workers, each
  replaced with backoff when it dies, wedges or overruns ``timeout``;
  worker deaths and wedges are journaled crashes that feed the breaker,
  so a poison job is quarantined after ``breaker_threshold`` kills
  instead of stalling the queue;
* **graceful drain** — SIGTERM (or a ``drain`` request) stops
  admission, lets in-flight jobs finish (bounded by ``drain_grace``)
  and exits 0.  Queued jobs stay journaled for the next incarnation;
  a snapshot is written only if journal appends were lost;
* optionally a **cluster membership** (:mod:`repro.service.cluster`,
  ``--cluster``: the fleet's addresses, this daemon's own among them)
  — gossip heartbeats to every peer,
  lease-based handoff of a dead peer's jobs, rendezvous-hash submit
  routing, and a no-quorum stance that stops acceptance and settlement
  on the minority side of a partition.

Observability: every scheduling event (shed, breaker open, respawn,
drain...) is appended to a durable ``events.jsonl`` in the state
directory *and* kept in the engine's ``{"kind", "t", "payload"}`` trace
shape; ``--trace FILE`` writes the whole incarnation as a Chrome trace
lane on exit, merging straight into the existing telemetry tooling.
"""

from __future__ import annotations

import argparse
import asyncio
import fcntl
import json
import os
import signal
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Any, Sequence

from ..design.journal import JOURNAL_NAME, Journal
from ..design.store import PENDING, Job, JobStore
from ..harness.cache import ResultCache
from ..harness.engine import DEFAULT_RETRIES, Attempt
from ..harness.exit_codes import EXIT_OK, EXIT_PARTIAL
from ..harness.faults import FaultPlan
from ..harness.jobs import JobError, SimJob
from ..harness.options import fault_plan, fault_spec
from ..harness.pool import DEFAULT_HB_TIMEOUT, WorkerPool
from ..sim.stats import RunResult
from .admission import (ADMIT_PROBE, ADMIT_REFUSE, DEFAULT_BREAKER_COOLDOWN,
                        DEFAULT_BREAKER_THRESHOLD, DEFAULT_BURST,
                        DEFAULT_QUEUE_DEPTH, DEFAULT_RATE, CircuitBreaker,
                        FairShareQueue, TokenBucket)
from .cluster import (DEFAULT_GOSSIP_INTERVAL, DEFAULT_PEER_TTL, PEER_DEAD,
                      ClusterManager)
from .protocol import (DONE, FAILED, MAX_FRAME_BYTES, PROTOCOL_VERSION,
                       QUARANTINED, QUEUED, RUNNING, SHED, TERMINAL,
                       ProtocolError, decode_frame, encode_frame,
                       error_response, parse_address)

#: Default service state directory (journal, events, snapshot, socket,
#: lock).
DEFAULT_STATE_DIR = ".repro-serve"

#: Socket file name inside the state directory.
SOCKET_NAME = "serve.sock"

#: The state directory's lock file: one live daemon holds it.
LOCK_NAME = "serve.lock"

#: Journal and event-stream file names inside the state directory.
QUEUE_JOURNAL = JOURNAL_NAME
EVENTS_JOURNAL = "events.jsonl"

#: Default seconds a drain waits for in-flight jobs before exiting.
DEFAULT_DRAIN_GRACE = 30.0


class SchedulerDaemon:
    """The asyncio server tying queue, admission and pool together."""

    def __init__(self, *, state_dir: str | Path = DEFAULT_STATE_DIR,
                 address: str | Path | None = None,
                 cache_dir: str | Path | None = None,
                 workers: int = 2,
                 queue_depth: int = DEFAULT_QUEUE_DEPTH,
                 rate: float = DEFAULT_RATE, burst: float = DEFAULT_BURST,
                 breaker_threshold: int = DEFAULT_BREAKER_THRESHOLD,
                 breaker_cooldown: float | None = DEFAULT_BREAKER_COOLDOWN,
                 retries: int = DEFAULT_RETRIES,
                 timeout: float | None = None,
                 hb_timeout: float = DEFAULT_HB_TIMEOUT,
                 drain_grace: float = DEFAULT_DRAIN_GRACE,
                 trace: str | Path | None = None,
                 cluster_members: Sequence[str] | None = None,
                 gossip_interval: float = DEFAULT_GOSSIP_INTERVAL,
                 peer_ttl: float = DEFAULT_PEER_TTL,
                 faults: FaultPlan | None = None,
                 log=None) -> None:
        for name, value in (("workers", workers),
                            ("queue_depth", queue_depth),
                            ("breaker_threshold", breaker_threshold)):
            if not value >= 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        for name, value in (("rate", rate), ("burst", burst),
                            ("hb_timeout", hb_timeout),
                            ("gossip_interval", gossip_interval),
                            ("peer_ttl", peer_ttl)):
            if not value > 0:
                raise ValueError(f"{name} must be > 0, got {value}")
        for name, value in (("retries", retries), ("timeout", timeout),
                            ("drain_grace", drain_grace),
                            ("breaker_cooldown", breaker_cooldown)):
            if value is not None and not value >= 0:
                raise ValueError(f"{name} must be >= 0, got {value}")
        self.state_dir = Path(state_dir)
        #: Where the daemon listens (:func:`parse_address`) and, when
        #: clustered, its own entry in the member list.
        self.address = str(address if address is not None
                           else self.state_dir / SOCKET_NAME)
        self.cache = ResultCache(cache_dir) if cache_dir else ResultCache()
        self.workers = workers
        self.retries = retries
        self.timeout = timeout
        self.drain_grace = drain_grace
        self.trace_path = Path(trace) if trace else None
        # Forked workers run under this plan, so REPRO_FAULTS drives them
        # even when no plan is passed.
        self.faults = faults if faults is not None else FaultPlan.from_env()
        self.log = log if log is not None else sys.stderr

        self.worker_id = f"serve-{int(time.time())}"
        #: The durable queue.  The in-flight set and the in-band retry
        #: counts (of jobs not yet settled) are this incarnation's own,
        #: never journaled.
        self.table = JobStore(self.state_dir, worker=self.worker_id)
        self._running: set[str] = set()
        self._retries: dict[str, int] = {}
        self.queue = FairShareQueue(depth=queue_depth)
        self.buckets: dict[str, TokenBucket] = {}
        self.rate, self.burst = rate, burst
        # A zero cooldown quarantines for good, as None does.
        self.breaker = CircuitBreaker(threshold=breaker_threshold,
                                      cooldown=breaker_cooldown or None)
        self._probes: dict[str, str] = {}   # fingerprint -> probe job id
        self.pool = WorkerPool(workers, hb_timeout=hb_timeout,
                               faults=self.faults, on_event=self.event)
        # One thread per slot runs WorkerPool.run, which blocks.
        self._executor = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-serve-pool")

        self.started = time.monotonic()
        self.draining = False
        self.shed_count = 0
        self.frames_received = 0
        self.dispatched = 0
        #: This incarnation's events, kept in memory only for --trace;
        #: events.jsonl is their durable record.
        self.events: list[dict[str, Any]] | None = (
            [] if self.trace_path is not None else None)
        self._events_journal = Journal(self.state_dir / EVENTS_JOURNAL,
                                       worker=self.worker_id)
        self._kick = asyncio.Event()
        self._drained = asyncio.Event()
        self._watchers: list[tuple[set[str], asyncio.Queue]] = []
        self._inflight = 0
        self._server: asyncio.AbstractServer | None = None

        self.cluster: ClusterManager | None = None
        if cluster_members:
            self.cluster = ClusterManager(
                self, list(cluster_members),
                gossip_interval=gossip_interval, peer_ttl=peer_ttl,
                faults=self.faults)

    # ------------------------------------------------------------------ #
    # logging / events
    # ------------------------------------------------------------------ #
    def _log(self, message: str) -> None:
        print(f"[repro-serve {time.strftime('%H:%M:%S')}] {message}",
              file=self.log, flush=True)

    def event(self, kind: str, **payload: Any) -> None:
        """One scheduling event: trace lane + durable events journal."""
        if self.events is not None:
            self.events.append({"kind": kind,
                                "t": time.monotonic() - self.started,
                                "payload": payload})
        self._events_journal.append("event", kind=kind, **payload)

    # ------------------------------------------------------------------ #
    # startup / recovery
    # ------------------------------------------------------------------ #
    def recover(self) -> int:
        """Fold snapshot + journal; re-queue every non-terminal job."""
        self.state_dir.mkdir(parents=True, exist_ok=True)
        self.table.refresh()
        if self.table.replay_corrupt or self.table.replay_torn:
            self.event("journal.damage", corrupt=self.table.replay_corrupt,
                       torn_tail=self.table.replay_torn)
        for job in self.table.jobs.values():
            # Rebuild breaker state from journaled crash attribution so
            # a poison job cannot reset its count by killing the daemon.
            for _ in range(job.crashes):
                self.breaker.record_crash(job.fingerprint)
        requeued = 0
        for job in self._pending():
            verdict = self.breaker.admit(job.fingerprint)
            if verdict == ADMIT_REFUSE:
                self.table.append("quarantined", id=job.id,
                                  fingerprint=job.fingerprint,
                                  error="circuit breaker open "
                                        "(recovered poison job)")
                self.event("breaker.quarantine", id=job.id,
                           fingerprint=job.fingerprint[:12])
                continue
            if verdict == ADMIT_PROBE:
                self._probes[job.fingerprint] = job.id
                self.event("breaker.half_open",
                           fingerprint=job.fingerprint[:12], id=job.id)
            self.queue.push(job.tenant, job.id, force=True)
            requeued += 1
        return requeued

    def _pending(self) -> list[Job]:
        """Accepted jobs without a terminal state, in submission order
        (a cluster peer's replicas are not ours to run)."""
        return [job for job in self.table.ordered()
                if not job.owner and job.state not in TERMINAL]

    def _public_state(self, job: Job) -> str:
        if job.state == PENDING:
            return RUNNING if job.id in self._running else QUEUED
        return job.state

    # ------------------------------------------------------------------ #
    # the server
    # ------------------------------------------------------------------ #
    def _hold_state_dir(self) -> int:
        """Take ``serve.lock``: an exclusive ``flock`` holding our pid.

        A second daemon on a held state dir raises :class:`OSError`
        before it folds, binds or appends.  The kernel drops the lock
        when its holder dies, so a SIGKILLed daemon never blocks its
        restart, and forked workers close the descriptor at start.
        """
        self.state_dir.mkdir(parents=True, exist_ok=True)
        fd = os.open(self.state_dir / LOCK_NAME, os.O_RDWR | os.O_CREAT,
                     0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            holder = os.read(fd, 32).decode(errors="replace").strip()
            os.close(fd)
            raise OSError(f"state dir {self.state_dir} is held by another "
                          f"repro-serve (pid {holder or '?'})") from None
        os.ftruncate(fd, 0)
        os.write(fd, f"{os.getpid()}\n".encode())
        return fd

    async def serve(self) -> int:
        """Hold the state dir, recover, and serve until drained."""
        lock = self._hold_state_dir()
        try:
            return await self._serve()
        finally:
            os.close(lock)

    async def _serve(self) -> int:
        requeued = self.recover()
        self._log(f"recovered {len(self.table.jobs)} job(s), "
                  f"re-queued {requeued}")
        self.event("daemon.start", jobs=len(self.table.jobs),
                   requeued=requeued, workers=self.workers)
        # Signal handlers first: a SIGTERM is a drain request from the
        # moment the socket exists, never a default-action kill.
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(
                    sig, lambda s=sig: asyncio.ensure_future(
                        self.drain(f"signal {s.name}")))
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass

        # Bind before the pool starts: clients may connect and queue
        # while the workers fork.  The stream limit sits just past the
        # protocol frame bound so an oversized line is a typed refusal,
        # never an unhandled LimitOverrunError.
        kind, where = parse_address(self.address)
        if kind == "tcp":
            host, port = where
            self._server = await asyncio.start_server(
                self._handle_connection, host=host, port=port,
                limit=MAX_FRAME_BYTES + 1024)
        else:
            path = Path(where)
            path.unlink(missing_ok=True)
            path.parent.mkdir(parents=True, exist_ok=True)
            self._server = await asyncio.start_unix_server(
                self._handle_connection, path=where,
                limit=MAX_FRAME_BYTES + 1024)
        self._log(f"listening on {self.address} "
                  f"({self.workers} worker(s), pid {os.getpid()})")
        self.pool.start()

        gossip = None
        if self.cluster is not None:
            gossip = asyncio.ensure_future(self.cluster.run())
            self._log(f"clustered: node {self.cluster.index} of "
                      f"{len(self.cluster.members)}")
        dispatchers = [asyncio.ensure_future(self._dispatch_loop())
                       for _ in range(self.workers)]
        await self._drained.wait()
        if gossip is not None:
            gossip.cancel()
            await asyncio.gather(gossip, return_exceptions=True)
        for task in dispatchers:
            task.cancel()
        await asyncio.gather(*dispatchers, return_exceptions=True)
        self._server.close()
        await self._server.wait_closed()
        if kind == "unix":
            # asyncio leaves the socket file behind (Python < 3.13); a
            # restart that waits for the file must wait for its own.
            # Best effort: the pool and the journal still close below.
            try:
                path.unlink()
            except OSError:
                pass
        self.pool.close()
        self._executor.shutdown(wait=False)
        snapshot = self.table.close()
        pending = len(self._pending())
        self.event("daemon.stop", snapshot=snapshot, pending=pending)
        if self.trace_path is not None:
            self._write_trace()
        lost = ("" if snapshot is None else
                f" (journal appends lost: snapshot "
                f"{'ok' if snapshot else 'FAILED'})")
        self._log(f"drained: {pending} job(s) left for the next "
                  f"incarnation{lost}")
        return EXIT_OK

    def _write_trace(self) -> None:
        from ..telemetry.trace import merge_chrome_traces
        doc = merge_chrome_traces([], engine_events=self.events)
        try:
            self.trace_path.parent.mkdir(parents=True, exist_ok=True)
            self.trace_path.write_text(json.dumps(doc), encoding="utf-8")
        except OSError as error:   # pragma: no cover - best effort
            self._log(f"trace write failed: {error}")

    async def drain(self, reason: str) -> None:
        """Stop admitting, let in-flight work finish, stop."""
        if self.draining:
            return
        self.draining = True
        self._log(f"draining ({reason}); refusing new submissions")
        self.event("daemon.drain", reason=reason,
                   queued=len(self.queue), inflight=self._inflight)
        deadline = time.monotonic() + self.drain_grace
        while self._inflight > 0 and time.monotonic() < deadline:
            await asyncio.sleep(0.05)
        self._drained.set()

    # ------------------------------------------------------------------ #
    # dispatch
    # ------------------------------------------------------------------ #
    async def _dispatch_loop(self) -> None:
        while True:
            if self.draining:
                return
            if self.cluster is not None and not self.cluster.has_quorum():
                # Split-brain stance: a partition minority neither
                # dispatches nor settles — the majority side may be
                # reclaiming these very jobs right now.
                await asyncio.sleep(0.1)
                continue
            job_id = self.queue.pop()
            if job_id is None:
                self._kick.clear()
                try:
                    await asyncio.wait_for(self._kick.wait(), timeout=0.25)
                except asyncio.TimeoutError:
                    pass
                continue
            job = self.table.jobs[job_id]
            if job.state in TERMINAL:
                self._retries.pop(job_id, None)   # settled by a peer
                continue
            if self.breaker.is_open(job.fingerprint) \
                    and self._probes.get(job.fingerprint) != job.id:
                # Opened after this job was queued (a crash streak, or a
                # peer's quarantine arriving by gossip).
                self._terminal(job, QUARANTINED,
                               error="circuit breaker open "
                                     "(fingerprint quarantined)")
                continue
            self._inflight += 1
            self._running.add(job.id)
            try:
                await self._dispatch_one(job)
            finally:
                self._running.discard(job.id)
                self._inflight -= 1

    async def _dispatch_one(self, job: Job) -> None:
        # One hop to a pool thread for the cache check and the attempt:
        # on a loaded host every thread wake-up waits for a time slice.
        cached, attempt = await asyncio.get_running_loop().run_in_executor(
            self._executor, self._run_on_pool, job)
        if attempt is None:
            self._terminal(job, DONE, cycles=cached.cycles, ipc=cached.ipc,
                           cached=True)
            return
        self.dispatched += 1
        self._settle(job, attempt)

    def _run_on_pool(self, job: Job
                     ) -> tuple[RunResult | None, Attempt | None]:
        """On a pool thread: the cached result, else one attempt."""
        # Dedup against the cache at the last moment too: a previous
        # incarnation's worker may have finished this fingerprint after
        # the submit was journaled but before any terminal record.
        cached = self.cache.get(job.fingerprint)
        if cached is not None:
            return cached, None
        try:
            sim_job = SimJob.from_payload(job.job)
        except (JobError, KeyError, TypeError, ValueError) as error:
            return None, Attempt("err",
                                 error=f"{type(error).__name__}: {error}")
        # The job's faults are addressed by its dispatch ordinal.
        return None, self.pool.run(job.index, sim_job, cache=self.cache,
                                   timeout=self.timeout)

    def _settle(self, job: Job, attempt: Attempt) -> None:
        if self.cluster is not None and not self.cluster.has_quorum() \
                and job.state not in TERMINAL:
            # Quorum was lost while this job was in flight: journaling a
            # terminal now could conflict with a majority-side reclaim.
            # Re-queue; on rejoin the dispatch re-runs (a cache hit, or
            # folds the peer's terminal first).
            self.event("cluster.defer", id=job.id, tag=attempt.tag)
            self.queue.push(job.tenant, job.id, force=True)
            return
        if attempt.tag == "ok":
            self._terminal(job, DONE, cycles=attempt.result.cycles,
                           ipc=attempt.result.ipc, cached=attempt.cached)
            return
        if attempt.crash is not None:
            wedged = attempt.crash == "wedged"
            self.table.append("crash", id=job.id,
                              fingerprint=job.fingerprint,
                              error=attempt.error, wedged=wedged)
            opened = self.breaker.record_crash(job.fingerprint)
            self._probes.pop(job.fingerprint, None)
            self.event("worker.crash", id=job.id, wedged=wedged,
                       crashes=job.crashes)
            if opened:
                self.event("breaker.open", fingerprint=job.fingerprint[:12],
                           crashes=self.breaker.crashes[job.fingerprint])
            if self.breaker.is_open(job.fingerprint):
                self._terminal(job, QUARANTINED,
                               error=f"circuit breaker open after "
                                     f"{job.crashes} worker crash(es): "
                                     f"{attempt.error}")
            else:
                self._requeue(job, attempt.error)
            return
        if attempt.tag == "err" and attempt.transient \
                and self._retries.get(job.id, 0) < self.retries:
            self._retries[job.id] = self._retries.get(job.id, 0) + 1
            self._requeue(job, attempt.error)
            return
        self._terminal(job, FAILED, error=attempt.error or attempt.tag)

    def _requeue(self, job: Job, reason: str | None) -> None:
        self.event("job.requeue", id=job.id, reason=(reason or "")[:120])
        # Forced: this job already passed admission; the depth bound
        # sheds new work, it never drops accepted work.
        self.queue.push(job.tenant, job.id, force=True)
        self._kick.set()

    def _terminal(self, job: Job, state: str, *,
                  cycles: int | None = None, ipc: float | None = None,
                  error: str | None = None, cached: bool = False) -> None:
        kind = state   # the record kind is the state's name
        payload: dict[str, Any] = {"id": job.id,
                                   "fingerprint": job.fingerprint}
        if state == DONE:
            payload.update(cycles=cycles, ipc=ipc, cached=cached)
        else:
            payload["error"] = (error or "")[:500] or None
        self.table.append(kind, **payload)
        self._retries.pop(job.id, None)
        self.event(f"job.{kind}", id=job.id, cached=cached)
        if state == DONE and self.breaker.record_success(job.fingerprint):
            self._probes.pop(job.fingerprint, None)
            self.event("breaker.close", fingerprint=job.fingerprint[:12],
                       id=job.id)
        self.notify_watchers(job.id, state, cycles=job.cycles, ipc=job.ipc,
                             error=job.error)

    def notify_watchers(self, job_id: str, state: str, *,
                        cycles: int | None = None, ipc: float | None = None,
                        error: str | None = None) -> None:
        """Push one terminal frame to every watcher waiting on this id.

        Called for local terminals and — on a clustered daemon — for
        remote terminals learned by gossip, so a client may watch ids on
        any fleet member.
        """
        frame = {"event": "terminal", "id": job_id, "state": state,
                 "cycles": cycles, "ipc": ipc, "error": error}
        for ids, queue in self._watchers:
            if job_id in ids:
                queue.put_nowait(frame)

    def adopt_job(self, job: Job) -> None:
        """Take over a dead peer's unfinished job, a replica in the store.

        Called by the cluster manager once this node wins the rendezvous
        election for it: journal a fresh ``submit`` (with
        ``adopted_from`` attribution for the offline audit), which makes
        the replica ours at a new ordinal, and force-push it — adopted
        work was already admitted once, it is never shed.  Re-execution
        is bitwise-safe: the result cache is keyed by job fingerprint.
        """
        source, ordinal = job.owner, self.table.next_index
        self.table.append("submit", id=job.id, tenant=job.tenant,
                          fingerprint=job.fingerprint, ordinal=ordinal,
                          job=job.job, adopted_from=source)
        self.queue.push(job.tenant, job.id, force=True)
        self.event("cluster.reclaim", id=job.id, source=source,
                   ordinal=ordinal)
        self._kick.set()

    # ------------------------------------------------------------------ #
    # connections
    # ------------------------------------------------------------------ #
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                try:
                    raw = await reader.readline()
                except (OSError, ConnectionError):
                    break
                except ValueError:
                    # The line blew past the stream limit (an oversized
                    # frame): answer a typed refusal and close — the
                    # remaining bytes of that line cannot be resynced.
                    try:
                        writer.write(encode_frame(error_response(
                            None, f"frame exceeds {MAX_FRAME_BYTES} "
                                  f"bytes")))
                        await writer.drain()
                    except (OSError, ConnectionError):
                        pass
                    break
                if not raw:
                    break
                ordinal = self.frames_received
                self.frames_received += 1
                if self.faults is not None \
                        and self.faults.service_socket_drop(ordinal):
                    self.event("socket.drop", frame=ordinal)
                    break
                try:
                    frame = decode_frame(raw)
                except ProtocolError as error:
                    writer.write(encode_frame(error_response(None,
                                                             str(error))))
                    await writer.drain()
                    continue
                op = frame.get("op")
                if op == "watch":
                    await self._op_watch(frame, writer)
                    continue
                if op == "submit":
                    response = await self._submit_entry(frame)
                else:
                    response = self._respond(op, frame)
                writer.write(encode_frame(response))
                try:
                    await writer.drain()
                except (OSError, ConnectionError):
                    break
                if op == "drain":
                    asyncio.ensure_future(self.drain("drain request"))
        except asyncio.CancelledError:
            # Server shutdown mid-request: end the connection quietly
            # (clients reconnect; jobs are journaled either way).
            pass
        finally:
            try:
                writer.close()
            except Exception:   # noqa: BLE001 - already torn down
                pass

    def _respond(self, op: str | None,
                 frame: dict[str, Any]) -> dict[str, Any]:
        if op == "submit":
            return self._op_submit(frame)
        if op == "status":
            return self._op_status()
        if op == "result":
            return self._op_result(frame)
        if op == "gossip":
            if self.cluster is None:
                return error_response("gossip",
                                      "this daemon is not clustered")
            return self.cluster.handle_gossip(frame)
        if op == "drain":
            return {"ok": True, "op": "drain", "draining": True}
        return error_response(op, f"unknown op {op!r}")

    # -- submit -------------------------------------------------------- #
    async def _submit_entry(self, frame: dict[str, Any]) -> dict[str, Any]:
        """Cluster-aware front door for ``submit``: route, then accept.

        Non-clustered daemons fall straight through to the synchronous
        admission ladder.  Clustered ones first consult their replicas
        (a peer may already own or have finished this id), then forward
        the frame to its rendezvous owner — unless the frame is pinned,
        already forwarded once, or quorum is lost.
        """
        if self.cluster is None:
            return self._op_submit(frame)
        if self.cluster.blocked_inbound(frame):
            return error_response("submit", "unreachable (partitioned)")
        job_id = frame.get("id")
        if not isinstance(job_id, str) or not job_id:
            return self._op_submit(frame)   # the ladder's typed error
        known = self.table.jobs.get(job_id)
        if known is not None:
            if not known.owner:
                return self._op_submit(frame)   # ours: a duplicate
            if known.state in TERMINAL:
                return {"ok": True, "op": "submit", "id": job_id,
                        "state": known.state, "duplicate": True,
                        "remote": known.owner, "cycles": known.cycles,
                        "ipc": known.ipc, "error": known.error}
            owner = self.cluster.peers.get(known.owner)
            if owner is not None and owner.state != PEER_DEAD:
                # The owner is up (or merely suspect — slowness must not
                # fork ownership): idempotent duplicate, answer without
                # re-accepting.  Only a DEAD owner falls through —
                # resubmission is then the client-side takeover path,
                # racing the reclaim at worst into an agreeing duplicate
                # the audit tolerates.
                return {"ok": True, "op": "submit", "id": job_id,
                        "state": QUEUED, "duplicate": True,
                        "remote": known.owner}
        if self.cluster.has_quorum() and not self.draining:
            try:
                job = SimJob.from_payload(frame.get("job") or {})
            except (JobError, KeyError, TypeError, ValueError):
                pass   # the local ladder produces the typed error
            else:
                routed = await self.cluster.route_submit(frame,
                                                         job.fingerprint())
                if routed is not None:
                    return routed
        return self._op_submit(frame)

    def _op_submit(self, frame: dict[str, Any]) -> dict[str, Any]:
        job_id = frame.get("id")
        tenant = str(frame.get("tenant") or "-")
        if not isinstance(job_id, str) or not job_id:
            return error_response("submit", "submit needs a string id")
        known = self.table.jobs.get(job_id)
        if known is not None and not known.owner:
            # Idempotent resubmission (reconnect, concurrent client):
            # answer with the job's current state, enqueue nothing.  A
            # replica gets here only once its owner is dead: accepting
            # it adopts it.
            return {"ok": True, "op": "submit", "id": job_id,
                    "state": self._public_state(known), "duplicate": True,
                    "cycles": known.cycles, "ipc": known.ipc,
                    "error": known.error}
        try:
            job = SimJob.from_payload(frame.get("job") or {})
            job.check()
        except (JobError, KeyError, TypeError, ValueError) as error:
            return error_response("submit",
                                  f"bad job payload: {error}")
        fingerprint = job.fingerprint()
        verdict = self.breaker.admit(fingerprint)
        if verdict == ADMIT_REFUSE:
            # Refused before admission: this fingerprint kills workers.
            self.event("breaker.refuse", id=job_id,
                       fingerprint=fingerprint[:12])
            return {"ok": True, "op": "submit", "id": job_id,
                    "state": QUARANTINED, "accepted": False,
                    "reason": "circuit breaker open for this fingerprint"}
        probe = verdict == ADMIT_PROBE
        if self.draining:
            self._unprobe(fingerprint, probe)
            return self._shed(job_id, "draining", retry_after=None)
        if self.cluster is not None and not self.cluster.has_quorum():
            # Split-brain stance: a daemon that cannot see a majority
            # of its fleet accepts nothing (and journals no terminals).
            self._unprobe(fingerprint, probe)
            return self._shed(job_id, "no-quorum",
                              retry_after=2 * self.cluster.gossip_interval)
        bucket = self.buckets.setdefault(
            tenant, TokenBucket(rate=self.rate, burst=self.burst))
        now = time.monotonic()
        if not bucket.take(now):
            self._unprobe(fingerprint, probe)
            return self._shed(job_id, "rate-limit",
                              retry_after=bucket.retry_after(now),
                              tenant=tenant)
        cached = self.cache.get(fingerprint)
        if cached is not None:
            # Free repeat query: accept + complete in one breath.
            ordinal = self.table.next_index
            self.table.append("submit", id=job_id, tenant=tenant,
                              fingerprint=fingerprint, ordinal=ordinal,
                              job=frame.get("job"))
            self._mark_probe(fingerprint, job_id, probe)
            record = self.table.jobs[job_id]
            self._terminal(record, DONE, cycles=cached.cycles,
                           ipc=cached.ipc, cached=True)
            return {"ok": True, "op": "submit", "id": job_id,
                    "state": DONE, "cached": True,
                    "cycles": cached.cycles, "ipc": cached.ipc}
        if len(self.queue) >= self.queue.depth:
            self._unprobe(fingerprint, probe)
            return self._shed(job_id, "queue-full",
                              retry_after=1.0, depth=self.queue.depth)
        ordinal = self.table.next_index
        self.table.append("submit", id=job_id, tenant=tenant,
                          fingerprint=fingerprint, ordinal=ordinal,
                          job=frame.get("job"))
        self._mark_probe(fingerprint, job_id, probe)
        self.queue.push(tenant, job_id)
        self._kick.set()
        return {"ok": True, "op": "submit", "id": job_id, "state": QUEUED,
                "ordinal": ordinal}

    def _unprobe(self, fingerprint: str, probe: bool) -> None:
        """A granted half-open probe whose submission was shed anyway:
        give the slot back so the next submission can probe instead."""
        if probe:
            self.breaker.probing.discard(fingerprint)

    def _mark_probe(self, fingerprint: str, job_id: str,
                    probe: bool) -> None:
        if probe:
            self._probes[fingerprint] = job_id
            self.event("breaker.half_open", fingerprint=fingerprint[:12],
                       id=job_id)

    def _shed(self, job_id: str, reason: str,
              retry_after: float | None, **extra: Any) -> dict[str, Any]:
        self.shed_count += 1
        self.event("admission.shed", id=job_id, reason=reason, **extra)
        response = {"ok": True, "op": "submit", "id": job_id,
                    "state": SHED, "accepted": False, "reason": reason}
        if retry_after is not None:
            response["retry_after"] = round(retry_after, 3)
        return response

    # -- status / result / watch -------------------------------------- #
    def _counts(self) -> dict[str, int]:
        out = {QUEUED: 0, RUNNING: 0, DONE: 0, FAILED: 0, QUARANTINED: 0}
        for job in self.table.jobs.values():
            if not job.owner:
                state = self._public_state(job)
                out[state] = out.get(state, 0) + 1
        return out

    def _op_status(self) -> dict[str, Any]:
        healthy = not self.draining and (self.cluster is None
                                         or self.cluster.has_quorum())
        return {
            "ok": True, "op": "status", "version": PROTOCOL_VERSION,
            "healthy": healthy, "draining": self.draining,
            "uptime": round(time.monotonic() - self.started, 3),
            "pid": os.getpid(),
            "jobs": self._counts(), "queued": len(self.queue),
            "queue_depth": self.queue.depth,
            "inflight": self._inflight, "dispatched": self.dispatched,
            "workers": self.workers,
            "workers_detail": self.pool.health(),
            "respawns": self.pool.respawns,
            "wedges": self.pool.wedges,
            "breaker_open": self.breaker.open_count(),
            "breaker": {
                "threshold": self.breaker.threshold,
                "cooldown": self.breaker.cooldown,
                "open": [fp[:12]
                         for fp in self.breaker.open_fingerprints()],
                "half_open": [fp[:12]
                              for fp in sorted(self.breaker.probing)],
            },
            "shed": self.shed_count,
            "journal_appends": self.table.journal.appends,
            "journal_append_errors": self.table.journal.append_errors,
            "cluster": (self.cluster.view()
                        if self.cluster is not None else None),
        }

    def _op_result(self, frame: dict[str, Any]) -> dict[str, Any]:
        rid = frame.get("id")
        if not isinstance(rid, str):
            return error_response("result", "result needs a string id")
        job = self.table.jobs.get(rid)
        if job is None:
            return error_response("result", f"unknown job id {rid!r}")
        response = {"ok": True, "op": "result", "id": job.id,
                    "state": self._public_state(job), "cycles": job.cycles,
                    "ipc": job.ipc, "error": job.error}
        if job.owner:
            response["remote"] = job.owner
        elif job.state == DONE:
            result = self.cache.get(job.fingerprint)
            if result is not None:
                response["result"] = result.to_dict()
        return response

    async def _op_watch(self, frame: dict[str, Any],
                        writer: asyncio.StreamWriter) -> None:
        """Stream terminal events for the requested ids, then done."""
        ids = frame.get("ids")
        if not isinstance(ids, list) or not all(isinstance(i, str)
                                                for i in ids):
            writer.write(encode_frame(error_response(
                "watch", "watch needs a list of string ids")))
            await writer.drain()
            return
        waiting = set(ids)
        queue: asyncio.Queue = asyncio.Queue()
        for job_id in list(waiting):
            job = self.table.jobs.get(job_id)
            if job is None:
                if self.cluster is not None:
                    # Clustered: the id may arrive at a peer; gossip
                    # folds its terminal through notify_watchers.
                    continue
                writer.write(encode_frame(
                    {"event": "terminal", "id": job_id, "state": FAILED,
                     "error": "unknown job id", "cycles": None,
                     "ipc": None}))
                waiting.discard(job_id)
            elif job.state in TERMINAL:
                writer.write(encode_frame(
                    {"event": "terminal", "id": job_id, "state": job.state,
                     "cycles": job.cycles, "ipc": job.ipc,
                     "error": job.error}))
                waiting.discard(job_id)
        watcher = (waiting, queue)
        self._watchers.append(watcher)
        try:
            await writer.drain()
            while waiting:
                frame_out = await queue.get()
                waiting.discard(frame_out["id"])
                writer.write(encode_frame(frame_out))
                await writer.drain()
            writer.write(encode_frame({"ok": True, "op": "watch",
                                       "done": True}))
            await writer.drain()
        except (OSError, ConnectionError):
            pass
        finally:
            self._watchers.remove(watcher)


# --------------------------------------------------------------------------- #
# CLI entry point: repro-serve
# --------------------------------------------------------------------------- #

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Always-on simulation scheduler daemon (NDJSON over "
                    "a unix socket or TCP; see docs/ROBUSTNESS.md).")
    parser.add_argument("--state-dir", default=DEFAULT_STATE_DIR,
                        help="durable queue state: journal, events, "
                             "snapshot, socket, lock; one daemon per dir "
                             f"(default {DEFAULT_STATE_DIR})")
    parser.add_argument("--socket", default=None, metavar="ADDR",
                        help="where to listen: a unix socket path or "
                             "host:port for TCP; with --cluster, this "
                             "daemon's entry in the member list "
                             f"(default STATE_DIR/{SOCKET_NAME})")
    parser.add_argument("--cache-dir", default=None,
                        help="result cache directory (default .repro-cache)")
    parser.add_argument("--workers", type=int, default=2,
                        help="worker processes (default 2)")
    parser.add_argument("--queue-depth", type=int,
                        default=DEFAULT_QUEUE_DEPTH,
                        help="admitted-job bound before load shedding "
                             f"(default {DEFAULT_QUEUE_DEPTH})")
    parser.add_argument("--rate", type=float, default=DEFAULT_RATE,
                        help="per-tenant submissions/second "
                             f"(default {DEFAULT_RATE:g})")
    parser.add_argument("--burst", type=float, default=DEFAULT_BURST,
                        help=f"per-tenant burst (default {DEFAULT_BURST:g})")
    parser.add_argument("--breaker-threshold", type=int,
                        default=DEFAULT_BREAKER_THRESHOLD,
                        help="worker crashes before a fingerprint is "
                             "quarantined "
                             f"(default {DEFAULT_BREAKER_THRESHOLD})")
    parser.add_argument("--breaker-cooldown", type=float,
                        default=DEFAULT_BREAKER_COOLDOWN,
                        help="seconds before an open circuit admits one "
                             "half-open probe; 0 = quarantine forever "
                             f"(default {DEFAULT_BREAKER_COOLDOWN:g})")
    parser.add_argument("--cluster", default=None, metavar="ADDRS",
                        help="comma-separated addresses of the whole "
                             "fleet (unix socket paths or host:port), "
                             "the same ordered list on every member, "
                             "--socket among them")
    parser.add_argument("--gossip-interval", type=float,
                        default=DEFAULT_GOSSIP_INTERVAL,
                        help="seconds between peer heartbeat rounds "
                             f"(default {DEFAULT_GOSSIP_INTERVAL:g})")
    parser.add_argument("--peer-ttl", type=float, default=DEFAULT_PEER_TTL,
                        help="peer silence beyond this is suspicion, "
                             "beyond twice this is death "
                             f"(default {DEFAULT_PEER_TTL:g})")
    parser.add_argument("--retries", type=int, default=DEFAULT_RETRIES,
                        help="in-band transient retries per job "
                             f"(default {DEFAULT_RETRIES})")
    parser.add_argument("--timeout", type=float, default=None,
                        help="per-job wall-clock deadline in seconds")
    parser.add_argument("--hb-timeout", type=float,
                        default=DEFAULT_HB_TIMEOUT,
                        help="watchdog: seconds of worker silence before "
                             f"a kill+respawn (default {DEFAULT_HB_TIMEOUT:g})")
    parser.add_argument("--drain-grace", type=float,
                        default=DEFAULT_DRAIN_GRACE,
                        help="seconds a drain waits for in-flight jobs "
                             f"(default {DEFAULT_DRAIN_GRACE:g})")
    parser.add_argument("--trace", default=None, metavar="FILE",
                        help="write the incarnation's scheduling events "
                             "as a Chrome trace on exit")
    parser.add_argument("--faults", type=fault_spec, default=None,
                        metavar="SPEC",
                        help="service fault injection spec (tests/CI)")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    members = None
    if args.cluster:
        members = [addr.strip() for addr in args.cluster.split(",")
                   if addr.strip()]
    faults = fault_plan(parser, args.faults)
    try:
        daemon = SchedulerDaemon(
            state_dir=args.state_dir, address=args.socket,
            cache_dir=args.cache_dir, workers=args.workers,
            queue_depth=args.queue_depth, rate=args.rate, burst=args.burst,
            breaker_threshold=args.breaker_threshold,
            breaker_cooldown=args.breaker_cooldown,
            retries=args.retries,
            timeout=args.timeout, hb_timeout=args.hb_timeout,
            drain_grace=args.drain_grace, trace=args.trace,
            cluster_members=members,
            gossip_interval=args.gossip_interval, peer_ttl=args.peer_ttl,
            faults=faults)
    except ValueError as error:
        parser.error(str(error))
    try:
        return asyncio.run(daemon.serve())
    except KeyboardInterrupt:   # pragma: no cover - signal path preferred
        return EXIT_OK
    except OSError as error:
        print(f"repro-serve: {error}", file=sys.stderr)
        return EXIT_PARTIAL


if __name__ == "__main__":   # pragma: no cover - subprocess entry
    raise SystemExit(main())
