"""Service worker: one supervised process of the ``repro-serve`` pool.

``python -m repro.service.worker`` speaks newline-delimited JSON on
stdin/stdout to exactly one parent (the supervisor):

* in  — ``{"id", "ordinal", "job": SimJob payload, "timeout"}`` requests
  (one job each) and ``{"op": "exit"}`` to quit cleanly;
* out — ``{"type": "ready"}`` once at start, ``{"type": "hb"}``
  heartbeats every ``--hb-interval`` seconds *while a job runs*, and one
  ``{"type": "outcome", ...}`` per job.

Jobs run through the shared dispatch core
(:func:`repro.harness.engine.execute_tagged`), so fault injection,
timeout typing and transient classification match the one-shot batch
engine exactly; the batch-grade faults (``fail:K``/``flaky:K``/
``kill:K``...) address the job's *dispatch ordinal* here.  Successful
results are written to the shared result cache by this process — the
daemon never holds results, only terminal states — so a worker killed
after caching but before its outcome line costs one redundant (cached)
re-dispatch, never a lost or doubled result.

The ``worker-wedge:K`` service fault makes this process go silent at
ordinal K: heartbeats stop and the job never returns.  The supervisor's
watchdog must kill and respawn us — that is the poison-job drill.
Stdout is line-buffered and flushed per frame; anything that would
normally print (warnings, tracebacks) goes to stderr so the protocol
stream stays clean.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
import time
from typing import Any, Sequence

from ..harness.cache import ResultCache
from ..harness.engine import execute_tagged
from ..harness.faults import FaultPlan
from ..harness.jobs import JobError, SimJob

#: Default seconds between heartbeat lines while a job runs.
DEFAULT_HB_INTERVAL = 0.5


def _emit(frame: dict[str, Any], out=None) -> None:
    out = out or sys.stdout
    out.write(json.dumps(frame, sort_keys=True, separators=(",", ":"))
              + "\n")
    out.flush()


class _Heartbeat(threading.Thread):
    """Emits heartbeat frames while the main thread executes a job."""

    def __init__(self, interval: float, lock: threading.Lock) -> None:
        super().__init__(name="service-worker-heartbeat", daemon=True)
        self.interval = interval
        self.lock = lock
        self._halt = threading.Event()

    def run(self) -> None:
        while not self._halt.wait(self.interval):
            with self.lock:
                _emit({"type": "hb"})

    def stop(self) -> None:
        self._halt.set()
        self.join(timeout=5.0)


def _wedge() -> None:   # pragma: no cover - killed by the supervisor
    """Go silent (the injected poison-job behaviour).

    Silent towards the *supervisor*: no heartbeats, no outcome, so the
    watchdog has to kill us.  But not a leak — if the daemon itself dies
    (SIGKILL in a chaos drill) we are reparented, notice, and exit, so
    wedged workers never outlive their service.
    """
    parent = os.getppid()
    while os.getppid() == parent:
        time.sleep(0.5)
    raise SystemExit(1)


def run_one(request: dict[str, Any], cache: ResultCache | None,
            faults: FaultPlan | None, inline: bool = False) -> dict[str, Any]:
    """Execute one job request; return its outcome frame.

    ``inline`` marks the supervisor's in-process fallback slot, where
    an injected fault must not kill the process it runs in
    (:func:`~repro.harness.engine.execute_tagged`).
    """
    job_id = request.get("id", "?")
    ordinal = int(request.get("ordinal", 0))
    try:
        job = SimJob.from_payload(request["job"])
    except (JobError, KeyError, TypeError, ValueError) as error:
        return {"type": "outcome", "id": job_id, "tag": "err",
                "error": f"{type(error).__name__}: {error}",
                "transient": False}
    fingerprint = job.fingerprint()
    started = time.monotonic()
    tagged = execute_tagged(ordinal, job, faults,
                            request.get("timeout"), inline,
                            request.get("sanitize"))
    duration = time.monotonic() - started
    tag = tagged[0]
    outcome: dict[str, Any] = {"type": "outcome", "id": job_id, "tag": tag,
                               "fingerprint": fingerprint,
                               "duration": round(duration, 4)}
    if tag == "ok":
        result = tagged[2]
        cached = cache.put(fingerprint, result) if cache is not None else False
        outcome.update(cycles=result.cycles, ipc=result.ipc, cached=cached)
    elif tag == "timeout":
        outcome.update(error=tagged[2], progress=tagged[3], transient=False)
    else:
        _, _, message, traceback_text, transient = tagged
        outcome.update(error=message, transient=bool(transient))
        if traceback_text:
            print(traceback_text, file=sys.stderr)
    return outcome


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service.worker",
        description="repro-serve pool worker (supervisor use only)")
    parser.add_argument("--cache-dir", default=None,
                        help="shared result cache directory")
    parser.add_argument("--hb-interval", type=float,
                        default=DEFAULT_HB_INTERVAL,
                        help="seconds between heartbeat frames "
                             f"(default {DEFAULT_HB_INTERVAL:g})")
    args = parser.parse_args(argv)
    cache = ResultCache(args.cache_dir) if args.cache_dir else None
    faults = FaultPlan.from_env()
    emit_lock = threading.Lock()
    with emit_lock:
        _emit({"type": "ready"})
    for line in sys.stdin:
        line = line.strip()
        if not line:
            continue
        try:
            request = json.loads(line)
        except ValueError:
            with emit_lock:
                _emit({"type": "outcome", "id": "?", "tag": "err",
                       "error": "unparseable request", "transient": False})
            continue
        if request.get("op") == "exit":
            return 0
        ordinal = int(request.get("ordinal", 0))
        if faults is not None and faults.service_worker_wedge(ordinal):
            # The poison job: stop talking, never finish.  The watchdog
            # upstairs kills us; the circuit breaker does the rest.
            _wedge()
        heart = _Heartbeat(args.hb_interval, emit_lock)
        heart.start()
        try:
            outcome = run_one(request, cache, faults)
        finally:
            heart.stop()
        with emit_lock:
            _emit(outcome)
    return 0


if __name__ == "__main__":   # pragma: no cover - subprocess entry
    raise SystemExit(main())
