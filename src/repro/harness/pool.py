"""One worker pool: what runs an attempt for the engine and the daemon.

:func:`~repro.harness.engine.run_batch` and the ``repro-serve`` daemon
(:mod:`repro.service.daemon`) run every attempt at a job through a
:class:`WorkerPool` of fixed slots.  Each slot is a process forked from
this one (:mod:`multiprocessing`, ``fork`` context) that talks to the
parent over its own pipe:

* in: one pickled attempt at a time,
  :func:`~repro.harness.engine.execute_tagged`'s arguments plus the
  result cache (``None`` asks the child to exit);
* out: ``("hb", None)`` heartbeats every ``hb_timeout / 6`` seconds while
  the attempt runs, then ``("done", attempt)``: the
  :class:`~repro.harness.engine.Attempt`, result included.

The child writes the result-cache entry itself, so a cache write error
or an injected ``corrupt:K`` rides the attempt back instead of a second
put in the parent.  The child runs under the pool's
:class:`~repro.harness.faults.FaultPlan`, inherited by the fork.

:meth:`WorkerPool.run` is the parent's one blocking call.  It takes an
idle slot and never raises: what happens to the worker, not the job,
becomes a typed outcome of that attempt alone:

* EOF on the pipe: the child died, a transient ``crash="died"``;
* no frame for ``hb_timeout`` seconds: the child is wedged (a poison
  job, a native hang), a transient ``crash="wedged"``;
* still running ``timeout + grace`` seconds after dispatch: the child's
  own wall-clock guard never fired, a ``"timeout"`` (the backstop).

Only that slot is killed and forked again, after a :class:`Backoff`
delay that grows with consecutive failures.  When no process can start
(no ``fork``, no pipes), a slot runs attempts in-process, one at a time:
a ``kill`` fault then raises a transient error and a ``worker-wedge``
fault is a transient wedge crash, since neither may end this process.

Retry policy stays with the callers: ``run_batch`` retries transients
and resumes timeouts per job; the daemon requeues and feeds its circuit
breaker.

Fork hygiene.  At start a child closes every descriptor it inherited
except its own pipe end and stdio, so the parent's end of its pipe and
any socket the parent closes later (a dropped client) are really
closed: an idle child sees EOF and exits when the parent dies.  It also
resets the signal wakeup fd and the ``SIGTERM``/``SIGINT`` handlers, so
a signal sent to a child never runs a handler of the parent's asyncio
loop (the daemon's drain).
"""

from __future__ import annotations

import gc
import os
import queue
import signal
import threading
import time
from typing import Any, Callable

from .cache import ResultCache
from .checkpoints import CheckpointPlan
from .engine import (Attempt, Backoff, execute_tagged, run_in_process,
                     store_result)
from .faults import FaultPlan
from .jobs import SimJob

#: Heartbeat watchdog: a busy child beats every ``hb_timeout / 6``
#: seconds, so this much silence means wedged, not slow.
DEFAULT_HB_TIMEOUT = 5.0

#: Event callback: ``on_event(kind, **payload)``.
EventFn = Callable[..., None]


def _crash(kind: str, message: str) -> Attempt:
    return Attempt("err", error=message, transient=True, crash=kind)


# --------------------------------------------------------------------------- #
# the child
# --------------------------------------------------------------------------- #

def _child_main(conn, parent_end, faults: FaultPlan | None,
                hb_interval: float) -> None:
    """A slot's process: run attempts until EOF or an exit message."""
    # Inherited garbage must never be finalized here: its descriptors
    # are closed below and their numbers reused.
    gc.freeze()
    parent_end.close()
    keep = conn.fileno()
    os.closerange(3, keep)
    os.closerange(keep + 1, os.sysconf("SC_OPEN_MAX"))
    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_DFL)
    lock = threading.Lock()

    def send(kind: str, payload: Attempt | None = None) -> None:
        with lock:
            conn.send((kind, payload))

    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        if message is None:
            return
        index, job, timeout, sanitize, checkpoints, cache = message
        if faults is not None and faults.service_worker_wedge(index):
            _wedge()
        halt = threading.Event()
        beat = threading.Thread(target=_heartbeat,
                                args=(send, halt, hb_interval), daemon=True)
        beat.start()
        try:
            attempt = store_result(
                execute_tagged(index, job, faults, timeout, False, sanitize,
                               checkpoints), index, job, cache, faults)
        finally:
            halt.set()
            beat.join()
        try:
            send("done", attempt)
        except OSError:
            return


def _heartbeat(send: Callable[[str], None], halt: threading.Event,
               interval: float) -> None:
    while not halt.wait(interval):
        try:
            send("hb")
        except OSError:
            os._exit(1)   # the parent is gone: nobody wants this result


def _wedge() -> None:   # pragma: no cover - killed by the parent
    """Go silent (the poison-job fault) until killed, or orphaned."""
    parent = os.getppid()
    while os.getppid() == parent:
        time.sleep(0.5)
    os._exit(1)


# --------------------------------------------------------------------------- #
# the parent
# --------------------------------------------------------------------------- #

class _Slot:
    """One pool slot: a forked process and its pipe, or in-process."""

    def __init__(self, index: int) -> None:
        self.index = index
        self.process = None
        self.conn = None
        self.jobs = 0

    def exited(self, timeout: float) -> bool:
        """Wait up to ``timeout`` seconds for the process to exit.

        Polls instead of ``Process.join(timeout)``: the child closed the
        sentinel pipe ``multiprocessing`` watches, so that ``join`` falls
        through to a ``waitpid`` that blocks until the child exits.
        """
        deadline = time.monotonic() + timeout
        pause = 0.0005
        while self.process.is_alive():
            left = deadline - time.monotonic()
            if left <= 0:
                return False
            time.sleep(min(pause, left))
            pause = min(2 * pause, 0.05)
        return True

    def stop(self) -> None:
        """Kill the process (if any) and close the pipe."""
        if self.process is not None:
            self.process.kill()
            self.process.join()
            self.conn.close()


class WorkerPool:
    """``size`` forked worker slots, each running one attempt at a time.

    ``hb_timeout`` defaults to :data:`DEFAULT_HB_TIMEOUT`; ``on_event``
    hears ``worker.respawn`` (slot, reason, delay) and ``worker.inline``
    (slot) events.  Use as a context manager, or :meth:`start` and
    :meth:`close`.
    """

    def __init__(self, size: int, *, faults: FaultPlan | None = None,
                 hb_timeout: float | None = None,
                 on_event: EventFn | None = None) -> None:
        if size < 1:
            raise ValueError(f"pool size must be >= 1, got {size}")
        self.size = size
        self.faults = faults
        self.hb_timeout = (DEFAULT_HB_TIMEOUT if hb_timeout is None
                           else hb_timeout)
        self.on_event = on_event or (lambda kind, **payload: None)
        self.respawns = 0
        self.wedges = 0
        self._failures = 0    # consecutive failed attempts: backoff's n
        self._slots: list[_Slot] = []
        self._idle: queue.SimpleQueue[_Slot] = queue.SimpleQueue()
        self._lock = threading.Lock()
        self._inline = threading.Lock()
        self._closed = False

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> "WorkerPool":
        for index in range(self.size):
            slot = _Slot(index)
            self._spawn(slot)
            self._slots.append(slot)
            self._idle.put(slot)
        return self

    __enter__ = start

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Ask every child to exit; kill those still running after 2 s."""
        self._closed = True
        live = [slot for slot in self._slots if slot.process is not None]
        for slot in live:
            try:
                slot.conn.send(None)
            except OSError:
                pass
        deadline = time.monotonic() + 2.0
        for slot in live:
            slot.exited(deadline - time.monotonic())
            slot.stop()

    def health(self) -> list[dict[str, Any]]:
        """Per-slot state: pid (None in-process), liveness, jobs run."""
        out = []
        for slot in self._slots:
            process = slot.process
            out.append({"slot": slot.index,
                        "pid": process.pid if process else None,
                        "inline": process is None,
                        "alive": process is None or process.is_alive(),
                        "jobs": slot.jobs})
        return out

    def _start_process(self):
        """Fork one child; return ``(process, parent end of its pipe)``."""
        import multiprocessing
        context = multiprocessing.get_context("fork")
        parent_end, child_end = context.Pipe()
        process = context.Process(
            target=_child_main, daemon=True,
            args=(child_end, parent_end, self.faults,
                  max(self.hb_timeout / 6.0, 0.1)))
        try:
            process.start()
        except BaseException:
            parent_end.close()
            raise
        finally:
            child_end.close()
        return process, parent_end

    def _spawn(self, slot: _Slot) -> None:
        """Start ``slot``'s process; run it in-process if none starts."""
        try:
            slot.process, slot.conn = self._start_process()
        except (OSError, ValueError, RuntimeError, ImportError):
            slot.process = slot.conn = None
            self.on_event("worker.inline", slot=slot.index)

    def _replace(self, slot: _Slot, reason: str) -> None:
        """Kill ``slot``'s process and fork another, after a backoff."""
        slot.stop()
        if self._closed:
            return
        with self._lock:
            self.respawns += 1
            self._failures += 1
            delay = Backoff().delay(self._failures)
        self.on_event("worker.respawn", slot=slot.index, reason=reason,
                      delay=round(delay, 3))
        time.sleep(delay)
        if not self._closed:
            self._spawn(slot)

    # ------------------------------------------------------------------ #
    # dispatch
    # ------------------------------------------------------------------ #
    def run(self, index: int, job: SimJob, *,
            cache: ResultCache | None = None,
            timeout: float | None = None,
            sanitize: bool | None = None,
            checkpoints: CheckpointPlan | None = None) -> Attempt:
        """Run one attempt at ``job`` on an idle slot; never raises.

        Blocks until a slot is free.  A slot whose worker died, wedged
        or overran is killed and forked again before this returns, so
        the pool never shrinks.
        """
        if self._closed:
            return Attempt("err", error="worker pool is closed")
        slot = self._idle.get()
        try:
            if slot.process is not None and not slot.process.is_alive():
                self._replace(slot, "died-idle")   # not this job's crash
            if slot.process is None:
                with self._inline:
                    attempt = run_in_process(
                        index, job, faults=self.faults, cache=cache,
                        timeout=timeout, sanitize=sanitize,
                        checkpoints=checkpoints)
                reason = None
            else:
                attempt, reason = self._drive(
                    slot, (index, job, timeout, sanitize, checkpoints,
                           cache), timeout, cache)
            if attempt.crash == "wedged":
                with self._lock:
                    self.wedges += 1
            if reason is not None:
                self._replace(slot, reason)
            elif attempt.crash is None:
                self._failures = 0
                slot.jobs += 1
        finally:
            self._idle.put(slot)
        return attempt

    def _drive(self, slot: _Slot, message: tuple, timeout: float | None,
               cache: ResultCache | None) -> tuple[Attempt, str | None]:
        """One attempt on a live child, watched by heartbeat and deadline.

        Returns the attempt and, when the slot must be replaced, why.
        """
        conn = slot.conn
        try:
            conn.send(message)
        except OSError as error:
            return _crash("died", f"worker crashed (pipe: {error})"), "died"
        started = last = time.monotonic()
        deadline = (None if timeout is None
                    else started + timeout + max(2.0, timeout / 2))
        while True:
            wait = last + self.hb_timeout
            if deadline is not None:
                wait = min(wait, deadline)
            try:
                if conn.poll(max(wait - time.monotonic(), 0.0)):
                    kind, attempt = conn.recv()
                    if kind == "done":
                        if cache is not None and attempt.tag == "ok" \
                                and not attempt.cached:
                            # The child's copy of the cache counted it.
                            cache.write_errors += 1
                        return attempt, None
                    last = time.monotonic()
                    continue
            except (EOFError, OSError):
                slot.exited(1.0)
                return (_crash("died", f"worker crashed (exit "
                                       f"{slot.process.exitcode})"),
                        "died")
            now = time.monotonic()
            if deadline is not None and now >= deadline:
                return (Attempt("timeout",
                                error=f"exceeded --timeout {timeout:g}s "
                                      f"(parent backstop after "
                                      f"{now - started:.1f}s)"),
                        "timeout")
            if now - last >= self.hb_timeout:
                return (_crash("wedged", f"worker wedged (silent for "
                                         f"{self.hb_timeout:g}s)"),
                        "wedged")
