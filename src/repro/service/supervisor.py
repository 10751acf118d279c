"""Supervised worker pool for the scheduler daemon.

The supervision tree (docs/ROBUSTNESS.md) in one module: the daemon
owns one :class:`Supervisor`; the supervisor owns ``size`` worker
processes (:mod:`repro.service.worker`), each speaking NDJSON over its
own stdin/stdout pipe pair.  Liveness is heartbeat-based: while a job
runs, a healthy worker emits a frame at least every heartbeat interval,
so *any* read silence longer than ``hb_timeout`` means the worker is
wedged (a poison job, a native hang) — the watchdog kills it, respawns
a replacement with exponential backoff
(:class:`repro.harness.engine.Backoff`) and reports the job as a
*crash* so the daemon's circuit breaker can count it.  A worker that
simply dies (OOM-kill, injected ``kill:K``) is detected the same tick
by EOF and handled identically minus the kill.

Environments that cannot spawn subprocesses degrade to an in-thread
inline worker running the worker's own job runner
(:func:`repro.service.worker.run_one`) — mirroring the batch engine's
pool-to-inline fallback — where a wedge fault degrades to a transient
crash (the thread cannot be killed) exactly like the inline ``kill``
fault does.
"""

from __future__ import annotations

import asyncio
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from ..harness.cache import ResultCache
from ..harness.engine import Backoff
from ..harness.faults import FaultPlan, child_env
from .worker import run_one

#: Read-silence watchdog: a running worker heartbeats every ~0.5s, so
#: several missed beats in a row mean wedged, not slow.
DEFAULT_HB_TIMEOUT = 5.0

#: How long to wait for a freshly spawned worker's ready frame.
_SPAWN_TIMEOUT = 30.0

#: Event callback: ``on_event(kind, **payload)``.
EventFn = Callable[..., None]


@dataclass
class Dispatch:
    """What happened to one dispatched job, from the daemon's view.

    ``tag`` mirrors the engine's tagged outcomes (``ok`` / ``timeout`` /
    ``err``); ``crashed`` marks outcomes where the *worker* died or
    wedged rather than the job failing in-band — those feed the circuit
    breaker, ordinary errors do not.
    """

    id: str
    tag: str
    fingerprint: str | None = None
    cycles: int | None = None
    ipc: float | None = None
    error: str | None = None
    transient: bool = False
    crashed: bool = False
    wedged: bool = False
    cached: bool = False
    duration: float = 0.0

    @classmethod
    def from_outcome(cls, frame: dict[str, Any], job_id: str) -> "Dispatch":
        """The dispatch an ``outcome`` frame reports, whether a worker
        process or the inline slot ran :func:`~.worker.run_one`."""
        return cls(id=frame.get("id", job_id), tag=frame.get("tag", "err"),
                   fingerprint=frame.get("fingerprint"),
                   cycles=frame.get("cycles"), ipc=frame.get("ipc"),
                   error=frame.get("error"),
                   transient=bool(frame.get("transient")),
                   cached=bool(frame.get("cached")),
                   duration=float(frame.get("duration") or 0.0))


class _Worker:
    """One pool slot: a subprocess, or the inline-thread fallback."""

    def __init__(self, proc: asyncio.subprocess.Process | None,
                 slot: int) -> None:
        self.proc = proc
        self.slot = slot
        self.jobs = 0

    @property
    def inline(self) -> bool:
        return self.proc is None

    @property
    def pid(self) -> int | None:
        return self.proc.pid if self.proc is not None else None

    async def kill(self) -> None:
        if self.proc is None:
            return
        try:
            self.proc.kill()
        except ProcessLookupError:
            pass
        try:
            await asyncio.wait_for(self.proc.wait(), timeout=5.0)
        except asyncio.TimeoutError:   # pragma: no cover - kernel lag
            pass


class Supervisor:
    """Spawn, health-check and replace the daemon's worker processes."""

    def __init__(self, size: int, *, cache_dir: str | Path | None,
                 hb_timeout: float = DEFAULT_HB_TIMEOUT,
                 backoff: Backoff | None = None,
                 faults: FaultPlan | None = None,
                 on_event: EventFn | None = None) -> None:
        if size < 1:
            raise ValueError(f"pool size must be >= 1, got {size}")
        self.size = size
        self.cache_dir = str(cache_dir) if cache_dir else None
        self.hb_timeout = hb_timeout
        self.backoff = backoff or Backoff()
        self.faults = faults
        self.on_event = on_event or (lambda kind, **payload: None)
        self.respawns = 0
        self.wedges = 0
        self._consecutive_failures = 0
        self._idle: asyncio.Queue[_Worker] = asyncio.Queue()
        self._workers: list[_Worker] = []
        self._closed = False

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    async def start(self) -> None:
        for slot in range(self.size):
            worker = await self._spawn(slot)
            self._workers.append(worker)
            self._idle.put_nowait(worker)

    def health(self) -> list[dict[str, Any]]:
        """Per-slot worker health for ``status`` responses: pid (None
        for the inline fallback), liveness and jobs served."""
        out = []
        for worker in self._workers:
            alive = worker.proc is not None \
                and worker.proc.returncode is None
            out.append({"slot": worker.slot, "pid": worker.pid,
                        "inline": worker.inline,
                        "alive": alive or worker.inline,
                        "jobs": worker.jobs})
        return out

    async def close(self) -> None:
        self._closed = True
        for worker in self._workers:
            if worker.proc is None or worker.proc.returncode is not None:
                continue
            try:
                worker.proc.stdin.write(b'{"op":"exit"}\n')
                await worker.proc.stdin.drain()
            except (OSError, ConnectionError):
                pass
            try:
                await asyncio.wait_for(worker.proc.wait(), timeout=2.0)
            except asyncio.TimeoutError:
                await worker.kill()

    async def _spawn(self, slot: int) -> _Worker:
        """A live worker for ``slot`` — subprocess, or inline fallback."""
        command = [sys.executable, "-m", "repro.service.worker",
                   "--hb-interval", f"{max(self.hb_timeout / 6.0, 0.1):g}"]
        if self.cache_dir:
            command += ["--cache-dir", self.cache_dir]
        try:
            proc = await asyncio.create_subprocess_exec(
                *command, env=child_env(),
                stdin=asyncio.subprocess.PIPE,
                stdout=asyncio.subprocess.PIPE,
                stderr=asyncio.subprocess.DEVNULL)
            line = await asyncio.wait_for(proc.stdout.readline(),
                                          timeout=_SPAWN_TIMEOUT)
            if json.loads(line.decode("utf-8")).get("type") != "ready":
                raise OSError("worker did not report ready")
        except (OSError, ValueError, NotImplementedError,
                asyncio.TimeoutError):
            self.on_event("worker.inline", slot=slot)
            return _Worker(None, slot)
        return _Worker(proc, slot)

    async def _replace(self, worker: _Worker, reason: str) -> None:
        """Kill a sick worker and respawn its slot, with backoff."""
        await worker.kill()
        self.respawns += 1
        self._consecutive_failures += 1
        delay = self.backoff.delay(self._consecutive_failures)
        self.on_event("worker.respawn", slot=worker.slot, reason=reason,
                      delay=round(delay, 3))
        await asyncio.sleep(delay)
        replacement = await self._spawn(worker.slot)
        self._workers[self._workers.index(worker)] = replacement
        self._idle.put_nowait(replacement)

    # ------------------------------------------------------------------ #
    # dispatch
    # ------------------------------------------------------------------ #
    async def run_job(self, request: dict[str, Any]) -> Dispatch:
        """Dispatch one job request to an idle worker; never raises.

        Blocks until a worker is free (the pool size is the concurrency
        bound).  Worker death and wedging come back as transient
        ``crashed`` dispatches; the worker slot is respawned before this
        returns, so the pool never shrinks.
        """
        worker = await self._idle.get()
        if worker.inline:
            dispatch = await self._run_inline(request)
            self._idle.put_nowait(worker)
            return dispatch
        try:
            dispatch = await self._drive(worker, request)
        except asyncio.CancelledError:
            self._idle.put_nowait(worker)
            raise
        if dispatch.crashed:
            reason = "wedged" if dispatch.wedged else "died"
            if dispatch.wedged:
                self.wedges += 1
            await self._replace(worker, reason)
        else:
            self._consecutive_failures = 0
            worker.jobs += 1
            self._idle.put_nowait(worker)
        return dispatch

    async def _drive(self, worker: _Worker,
                     request: dict[str, Any]) -> Dispatch:
        """One request/outcome exchange with heartbeat watchdogging."""
        job_id = request.get("id", "?")
        proc = worker.proc
        line = (json.dumps(request, sort_keys=True, separators=(",", ":"))
                + "\n").encode("utf-8")
        try:
            proc.stdin.write(line)
            await proc.stdin.drain()
        except (OSError, ConnectionError) as error:
            return Dispatch(id=job_id, tag="err", transient=True,
                            crashed=True,
                            error=f"worker pipe broke: {error}")
        while True:
            try:
                raw = await asyncio.wait_for(proc.stdout.readline(),
                                             timeout=self.hb_timeout)
            except asyncio.TimeoutError:
                return Dispatch(id=job_id, tag="err", transient=True,
                                crashed=True, wedged=True,
                                error=f"worker wedged (silent for "
                                      f"{self.hb_timeout:g}s)")
            if not raw:
                code = proc.returncode
                return Dispatch(id=job_id, tag="err", transient=True,
                                crashed=True,
                                error=f"worker died (exit {code})")
            try:
                frame = json.loads(raw.decode("utf-8"))
            except ValueError:
                continue   # a stray partial line around a kill
            kind = frame.get("type")
            if kind == "hb":
                continue
            if kind == "outcome":
                return Dispatch.from_outcome(frame, job_id)

    async def _run_inline(self, request: dict[str, Any]) -> Dispatch:
        """The no-subprocess fallback: the worker's job runner, run in
        this process's executor.

        A ``worker-wedge`` fault cannot wedge a thread we could never
        kill, so it degrades to a transient crash — the same contract as
        the inline ``kill`` fault — which still feeds the breaker.
        """
        job_id = request.get("id", "?")
        if self.faults is not None and self.faults.service_worker_wedge(
                int(request.get("ordinal", 0))):
            self.wedges += 1
            return Dispatch(id=job_id, tag="err", transient=True,
                            crashed=True, wedged=True,
                            error="injected worker wedge (inline: "
                                  "degraded to transient crash)")
        cache = ResultCache(self.cache_dir) if self.cache_dir else None
        frame = await asyncio.get_running_loop().run_in_executor(
            None, run_one, request, cache, self.faults, True)
        return Dispatch.from_outcome(frame, job_id)
