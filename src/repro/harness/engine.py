"""Batch execution engine: fan independent simulations out across cores.

:func:`run_batch` takes declarative :class:`~repro.harness.jobs.SimJob`
descriptions and returns a :class:`BatchReport` with one
:class:`JobOutcome` per job, in input order.  Results are memoised on disk
through an optional :class:`~repro.harness.cache.ResultCache`; only cache
misses are executed.  :func:`run_jobs` is the one wrapper that returns
plain results and raises for a failed job.

Execution strategy: every pending job goes through one per-job retry
loop, and each of its attempts runs either

* in this process, when ``workers <= 1`` or a single job is pending:
  no IPC, no pickling, identical to calling ``job.execute()`` directly;
* or on a :class:`~repro.harness.pool.WorkerPool` of ``workers`` forked
  processes, driven by ``workers`` threads, so each job fails, retries
  and times out independently.  Where no process can start, the pool's
  slots run in-process: results are identical by construction, only
  wall-clock differs.

Resilience model (see ``docs/ROBUSTNESS.md``):

* **Fault isolation** — one bad job never discards the rest of the batch:
  every completed result is recorded (and cached) as it arrives, and the
  batch always runs to completion unless ``fail_fast`` is set.
* **Retry with backoff** — failures are classified *transient* (a worker
  that died or wedged, ``OSError``/``MemoryError``) or *deterministic*
  (simulation exceptions).  Transients are retried up to ``retries``
  times with exponential backoff.  A dead worker costs only its own
  job an attempt: the pool replaces that one slot.
* **Deadlines** — ``timeout`` seconds per job, enforced twice: a
  cooperative wall-clock guard inside ``GPU.run`` makes the worker itself
  raise :class:`~repro.sim.gpu.SimulationTimeout`, and the pool keeps a
  backstop (timeout + grace) that kills a stuck worker and types its
  job's attempt a timeout.  A timed-out job is a typed ``"timeout"``
  outcome, never a hang.
* **Fault injection** — a :class:`~repro.harness.faults.FaultPlan` drops
  deterministic failures, transient failures, worker kills (including
  mid-run, cycle-addressed kills), wedges, delays, cache corruption and
  live-state corruption onto chosen jobs so every path above is testable.
* **Checkpoint/resume** — with a
  :class:`~repro.harness.checkpoints.CheckpointPlan`, every attempt
  snapshots its simulation periodically into a fingerprint-keyed store
  and starts by resuming from the newest stored snapshot.  A worker crash
  or cooperative timeout therefore costs at most one checkpoint interval
  of simulated progress on retry, and a timed-out job is re-dispatched
  (``"timeout-resume"``) as long as each attempt checkpointed *past* its
  predecessor — guaranteed forward progress, still bounded by
  ``retries``.  Resumed attempts produce bitwise-identical statistics to
  uninterrupted ones (property-tested in ``tests/test_checkpoint.py``);
  checkpoints are discarded once the last copy of their job in the batch
  completes.
* **Sanitizing** — ``sanitize=True`` arms the in-flight invariant checker
  (:mod:`repro.sim.invariants`) in every attempt; violations are
  deterministic failures (retrying would re-corrupt identically).
"""

from __future__ import annotations

import os
import threading
import time
import traceback
from collections import Counter, deque
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Iterable

from ..sim.gpu import SimulationTimeout
from ..sim.stats import RunResult
from .cache import ResultCache
from .checkpoints import CheckpointPlan
from .faults import FaultPlan
from .jobs import SimJob

#: ``progress(done, total)`` is invoked after every completed job.
ProgressFn = Callable[[int, int], None]

#: ``on_outcome(outcome)`` fires the moment a job reaches a terminal
#: state (ok/cached/failed/timeout/skipped), before the batch finishes —
#: the campaign layer journals outcomes as they arrive, so a crash later
#: in the batch loses nothing already completed.
OutcomeFn = Callable[["JobOutcome"], None]

#: Default number of *retries* per job (attempts = retries + 1) for
#: transient failures; deterministic failures are never retried.
DEFAULT_RETRIES = 2

#: First-retry backoff in seconds; doubles per subsequent attempt.
DEFAULT_BACKOFF = 0.25

#: Exceptions a worker classifies as transient (environment, not the job).
TRANSIENT_EXCEPTIONS = (OSError, EOFError, MemoryError)


@dataclass(frozen=True)
class Backoff:
    """Exponential backoff schedule shared by every retry loop.

    The engine's transient-failure retries, the worker pool's respawns
    and the service client's reconnects all pace themselves with this
    one policy: ``delay(attempt)`` for attempt ``n >= 1`` is
    ``base * 2**(n-1)``, capped at ``cap`` seconds.
    """

    base: float = DEFAULT_BACKOFF
    cap: float = 30.0

    def delay(self, attempt: int) -> float:
        return min(self.base * (2 ** (max(attempt, 1) - 1)), self.cap)


class JobExecutionError(RuntimeError):
    """A job failed inside a worker (or the inline path)."""

    def __init__(self, fingerprint: str, message: str,
                 worker_traceback: str | None = None) -> None:
        super().__init__(f"job {fingerprint[:12]} failed: {message}")
        self.fingerprint = fingerprint
        self.worker_traceback = worker_traceback


def default_workers() -> int:
    """The CLI default for ``--jobs``: one worker per available core."""
    return os.cpu_count() or 1


# --------------------------------------------------------------------------- #
# outcomes and reports
# --------------------------------------------------------------------------- #

@dataclass
class JobOutcome:
    """What happened to one job of a batch.

    ``status`` is one of:

    * ``"ok"`` — executed (possibly after retries) and produced a result
    * ``"cached"`` — replayed from the persistent result cache
    * ``"failed"`` — a deterministic failure, or retries exhausted
    * ``"timeout"`` — exceeded the per-job deadline (typed, never a hang)
    * ``"skipped"`` — not attempted because ``fail_fast`` stopped the batch
    """

    index: int
    fingerprint: str
    status: str = "skipped"
    result: RunResult | None = None
    attempts: int = 0
    error: str | None = None
    worker_traceback: str | None = None
    duration: float = 0.0
    #: Cycle the winning attempt resumed from (None = ran from cycle 0).
    resumed_from: int | None = None
    #: For ``"timeout"`` outcomes: how far the run got before the deadline
    #: (``{"cycle", "max_cycles", "kind", "checkpoint_cycle",
    #: "resumed_from"}``), so the failure table can report partial
    #: progress and checkpoint availability instead of a bare error.
    progress: dict[str, Any] | None = None

    @property
    def retried(self) -> bool:
        """Whether this job needed more than one attempt."""
        return self.attempts > 1


@dataclass
class BatchReport:
    """Structured record of one :func:`run_batch` invocation.

    ``outcomes`` is in input order, one entry per job.  ``events`` is the
    engine's own trace (retries, timeouts, worker respawns, cache write
    errors) as plain dicts ``{"kind", "t", "payload"}`` with ``t`` in
    seconds since the batch started (``started``, a ``time.monotonic()``
    reading) — exportable next to the simulators' cycle-domain traces
    (see ``repro.telemetry.trace``); :func:`rebased_events` puts several
    batches on one time base.
    """

    outcomes: list[JobOutcome] = field(default_factory=list)
    events: list[dict[str, Any]] = field(default_factory=list)
    started: float = 0.0
    elapsed: float = 0.0
    #: Corrupt checkpoint files quarantined by workers during this batch
    #: (worker-process counts, threaded back via the attempts).
    checkpoint_corrupt: int = 0

    def __len__(self) -> int:
        return len(self.outcomes)

    def count(self, status: str) -> int:
        return sum(1 for outcome in self.outcomes
                   if outcome.status == status)

    @property
    def retried(self) -> int:
        """Jobs that needed more than one attempt."""
        return sum(1 for outcome in self.outcomes if outcome.retried)

    def failures(self) -> list[JobOutcome]:
        """Outcomes without a result (failed, timed out or skipped)."""
        return [outcome for outcome in self.outcomes
                if outcome.result is None]

    def first_failure(self) -> JobOutcome | None:
        failures = self.failures()
        return failures[0] if failures else None

    def summary_line(self) -> str:
        """One-line digest for CLI footers."""
        parts = [f"{self.count('ok') + self.count('cached')} ok"]
        for status in ("failed", "timeout", "skipped"):
            if self.count(status):
                parts.append(f"{self.count(status)} {status}")
        if self.retried:
            parts.append(f"{self.retried} retried")
        if self.checkpoint_corrupt:
            parts.append(f"{self.checkpoint_corrupt} corrupt checkpoint(s) "
                         f"quarantined")
        return ", ".join(parts)


def rebased_events(reports: Iterable[BatchReport],
                   origin: float) -> list[dict[str, Any]]:
    """Every report's events, with ``t`` in seconds since ``origin`` (a
    ``time.monotonic()`` reading) instead of since its own batch's start."""
    return [{**event, "t": event["t"] + report.started - origin}
            for report in reports for event in report.events]


# --------------------------------------------------------------------------- #
# one attempt
# --------------------------------------------------------------------------- #

@dataclass
class Attempt:
    """What one attempt at one job came to.

    ``tag`` is ``"ok"`` (``result`` is set), ``"timeout"`` or ``"err"``.
    ``crash`` is ``"died"`` or ``"wedged"`` when the worker, not the job,
    failed; such attempts are transient errors, and the daemon's circuit
    breaker counts them.  ``progress`` says how far a cooperative timeout
    got (``{"cycle", "max_cycles", "kind", "checkpoint_cycle",
    "resumed_from", "checkpoint_corrupt"}``).  ``cached`` says the result
    is in the cache, ``corrupted`` that an injected fault then scribbled
    over it.
    """

    tag: str
    result: RunResult | None = None
    error: str | None = None
    traceback: str | None = None
    transient: bool = False
    crash: str | None = None
    progress: dict[str, Any] | None = None
    resumed_from: int | None = None
    checkpoint_corrupt: int = 0
    cached: bool = False
    corrupted: bool = False


def execute_tagged(index: int, job: SimJob, faults: FaultPlan | None,
                   wall_timeout: float | None, inline: bool = False,
                   sanitize: bool | None = None,
                   checkpoints: CheckpointPlan | None = None) -> Attempt:
    """Run one attempt at ``job`` in this process; never raises.

    This is the dispatch core under every slot, so fault injection,
    timeout typing, checkpoint resume and transient-vs-deterministic
    classification behave the same for a batch job and a daemon job.
    ``index`` addresses the job's faults: its batch position, or the
    daemon's dispatch ordinal.  ``inline`` says a ``kill`` fault must
    not end this process.

    With a checkpoint plan, the attempt first looks for the newest valid
    snapshot under this job's fingerprint and resumes it, so a retried
    job continues where the previous attempt's last checkpoint left off.
    """
    resumed_from = None
    ckpt_corrupt = 0
    try:
        resume_from = None
        if checkpoints is not None:
            store = checkpoints.store()
            resume_from = store.newest(job.fingerprint())
            # Quarantines happen in *this* process; the count must ride
            # the attempt or the parent footer never sees it.
            ckpt_corrupt = store.corrupt_entries
            if resume_from is not None:
                resumed_from = resume_from.cycle
        saboteur = (faults.run_saboteur(index, inline=inline)
                    if faults is not None else None)
        if faults is not None:
            faults.before_execute(index, inline=inline)
        result = job.execute(wall_timeout=wall_timeout, sanitize=sanitize,
                             checkpoint=checkpoints, resume_from=resume_from,
                             saboteur=saboteur)
        return Attempt("ok", result=result, resumed_from=resumed_from,
                       checkpoint_corrupt=ckpt_corrupt)
    except SimulationTimeout as error:
        progress = {"cycle": error.cycle, "max_cycles": error.max_cycles,
                    "kind": error.kind,
                    "checkpoint_cycle": error.checkpoint_cycle,
                    "resumed_from": resumed_from,
                    "checkpoint_corrupt": ckpt_corrupt}
        return Attempt("timeout", error=f"{type(error).__name__}: {error}",
                       progress=progress, resumed_from=resumed_from,
                       checkpoint_corrupt=ckpt_corrupt)
    except Exception as error:   # noqa: BLE001 - transported to the caller
        return Attempt("err", error=f"{type(error).__name__}: {error}",
                       traceback=traceback.format_exc(),
                       transient=isinstance(error, TRANSIENT_EXCEPTIONS))


def store_result(attempt: Attempt, index: int, job: SimJob,
                 cache: ResultCache | None,
                 faults: FaultPlan | None) -> Attempt:
    """Write a successful attempt's result to the cache."""
    if attempt.tag == "ok" and cache is not None:
        fingerprint = job.fingerprint()
        attempt.cached = cache.put(fingerprint, attempt.result)
        if attempt.cached and faults is not None \
                and faults.corrupt_cache(index):
            # Injected corruption: scribble over the entry just written
            # so the next read exercises the miss-not-crash path.
            cache.path_for(fingerprint).write_text("{corrupted",
                                                   encoding="utf-8")
            attempt.corrupted = True
    return attempt


def run_in_process(index: int, job: SimJob, *,
                   faults: FaultPlan | None = None,
                   cache: ResultCache | None = None,
                   timeout: float | None = None,
                   sanitize: bool | None = None,
                   checkpoints: CheckpointPlan | None = None) -> Attempt:
    """One attempt in this process: what a slot runs, minus the process.

    A ``worker-wedge`` fault cannot wedge a process nobody could kill,
    so it is a transient wedge crash straight away.
    """
    if faults is not None and faults.service_worker_wedge(index):
        return Attempt("err", transient=True, crash="wedged",
                       error="injected worker wedge (inline: degraded to "
                             "transient crash)")
    attempt = execute_tagged(index, job, faults, timeout, True, sanitize,
                             checkpoints)
    return store_result(attempt, index, job, cache, faults)


# --------------------------------------------------------------------------- #
# batch state and the per-job retry loop
# --------------------------------------------------------------------------- #

#: One attempt at job ``index``: ``attempt(index, job, cache=, timeout=,
#: sanitize=, checkpoints=)``, in-process or on a pool slot.
AttemptFn = Callable[..., Attempt]


class _BatchState:
    """Outcome recording and engine-event bookkeeping.

    Pool threads share it: every record, and the ``progress`` and
    ``on_outcome`` hooks they fire, run under one lock.
    """

    def __init__(self, jobs: list[SimJob], fingerprints: list[str],
                 cache: ResultCache | None, progress: ProgressFn | None,
                 sanitize: bool | None = None,
                 checkpoints: CheckpointPlan | None = None,
                 on_outcome: OutcomeFn | None = None) -> None:
        self.jobs = jobs
        self.cache = cache
        self.progress = progress
        self.on_outcome = on_outcome
        self.sanitize = sanitize
        self.checkpoints = checkpoints
        self.checkpoint_store = (checkpoints.store()
                                 if checkpoints is not None else None)
        self.started = time.monotonic()
        self.outcomes = [JobOutcome(index=i, fingerprint=fp)
                         for i, fp in enumerate(fingerprints)]
        #: Jobs not yet terminal, per fingerprint: a batch may hold one
        #: job twice, and the copies share their checkpoints.
        self.unfinished = Counter(fingerprints)
        self.events: list[dict[str, Any]] = []
        self.done = 0
        self.checkpoint_corrupt = 0
        self.stopped = False
        self.lock = threading.RLock()

    def note_checkpoint_corrupt(self, index: int, count: int) -> None:
        """Accumulate worker-side quarantine counts into the batch."""
        if count:
            self.checkpoint_corrupt += count
            self.event("checkpoint.corrupt", job=index, count=count)

    def event(self, kind: str, **payload: Any) -> None:
        with self.lock:
            self.events.append({"kind": kind,
                                "t": time.monotonic() - self.started,
                                "payload": payload})

    def _advance(self, index: int) -> None:
        self.done += 1
        self.unfinished[self.outcomes[index].fingerprint] -= 1
        if self.progress is not None:
            self.progress(self.done, len(self.jobs))
        if self.on_outcome is not None:
            # Terminal-state hook: fires *after* the result is cached, so
            # a listener that journals "done" can rely on the cache entry
            # already existing.
            self.on_outcome(self.outcomes[index])

    # ------------------------------------------------------------------ #
    def record_cached(self, index: int, result: RunResult) -> None:
        with self.lock:
            outcome = self.outcomes[index]
            outcome.status = "cached"
            outcome.result = result
            self._advance(index)

    def record_ok(self, index: int, attempt: Attempt, attempts: int,
                  duration: float) -> None:
        with self.lock:
            outcome = self.outcomes[index]
            outcome.status = "ok"
            outcome.result = attempt.result
            outcome.attempts = attempts
            outcome.duration = duration
            if attempt.resumed_from is not None:
                outcome.resumed_from = attempt.resumed_from
                self.event("job.resumed", job=index,
                           cycle=attempt.resumed_from)
            self.note_checkpoint_corrupt(index, attempt.checkpoint_corrupt)
            if (self.checkpoint_store is not None
                    and self.unfinished[outcome.fingerprint] == 1):
                # The job is done (and cached) and no other copy of it is
                # pending: its checkpoints have served their purpose.
                self.checkpoint_store.discard(outcome.fingerprint)
            if self.cache is not None and not attempt.cached:
                self.event("cache.write_error", job=index,
                           fingerprint=outcome.fingerprint[:12])
            elif attempt.corrupted:
                self.event("cache.corrupted", job=index)
            if attempts > 1:
                self.event("job.recovered", job=index, attempts=attempts)
            self._advance(index)

    def record_failure(self, index: int, attempt: Attempt, attempts: int,
                       duration: float) -> None:
        with self.lock:
            outcome = self.outcomes[index]
            outcome.status = "failed"
            outcome.error = attempt.error
            outcome.worker_traceback = attempt.traceback
            outcome.attempts = attempts
            outcome.duration = duration
            self.event("job.failed", job=index, attempts=attempts,
                       error=attempt.error)
            self._advance(index)

    def record_timeout(self, index: int, attempt: Attempt, attempts: int,
                       duration: float) -> None:
        with self.lock:
            outcome = self.outcomes[index]
            outcome.status = "timeout"
            outcome.error = attempt.error
            outcome.attempts = attempts
            outcome.duration = duration
            outcome.progress = attempt.progress
            self.event("job.timeout", job=index, attempts=attempts,
                       error=attempt.error, progress=attempt.progress)
            self.note_checkpoint_corrupt(index, attempt.checkpoint_corrupt)
            self._advance(index)

    def record_skipped(self, index: int) -> None:
        with self.lock:
            outcome = self.outcomes[index]
            outcome.status = "skipped"
            outcome.error = "skipped: fail-fast stopped the batch"
            self._advance(index)

    def retry_delay(self, index: int, attempts: int, backoff: float,
                    reason: str) -> float:
        delay = Backoff(base=backoff, cap=float("inf")).delay(attempts)
        self.event("job.retry", job=index, attempt=attempts + 1,
                   delay=round(delay, 3), reason=reason)
        return delay

    def can_resume_timeout(self, progress: dict[str, Any] | None) -> bool:
        """Is a resume-retry of this cooperative timeout worthwhile?

        Only when checkpointing is on, the deadline was the *wall-clock*
        guard (a ``max-cycles`` overrun is deterministic: resuming would
        overrun again), and this attempt checkpointed strictly past the
        snapshot it started from — so every retry makes forward progress
        and the attempt bound is an upper limit, not a treadmill.
        """
        if self.checkpoints is None or not progress:
            return False
        if progress.get("kind") != "wall":
            return False
        saved = progress.get("checkpoint_cycle")
        if saved is None:
            return False
        resumed = progress.get("resumed_from")
        return saved > (resumed if resumed is not None else -1)


def _run_job(state: _BatchState, index: int, attempt_fn: AttemptFn, *,
             retries: int, timeout: float | None, backoff: float) -> bool:
    """Attempt job ``index`` until it is terminal; True if it succeeded."""
    job = state.jobs[index]
    started = time.monotonic()
    attempts = 0
    while True:
        attempts += 1
        attempt = attempt_fn(index, job, cache=state.cache, timeout=timeout,
                             sanitize=state.sanitize,
                             checkpoints=state.checkpoints)
        duration = time.monotonic() - started
        if attempt.tag == "ok":
            state.record_ok(index, attempt, attempts, duration)
            return True
        if attempt.tag == "timeout":
            reason = "timeout-resume"
            retry = state.can_resume_timeout(attempt.progress)
        else:
            reason = attempt.crash or "transient"
            retry = attempt.transient
        if retry and attempts <= retries:
            time.sleep(state.retry_delay(index, attempts, backoff, reason))
            continue
        if attempt.tag == "timeout":
            state.record_timeout(index, attempt, attempts, duration)
        else:
            state.record_failure(index, attempt, attempts, duration)
        return False


def _drain(state: _BatchState, queue: deque[int], attempt_fn: AttemptFn, *,
           fail_fast: bool, **policy: Any) -> None:
    """Run queued jobs one after another until the queue is empty."""
    while True:
        with state.lock:
            if not queue:
                return
            index = queue.popleft()
            if state.stopped:
                state.record_skipped(index)
                continue
        if not _run_job(state, index, attempt_fn, **policy) and fail_fast:
            state.stopped = True


# --------------------------------------------------------------------------- #
# public API
# --------------------------------------------------------------------------- #

def run_batch(jobs: Iterable[SimJob], *, workers: int = 1,
              cache: ResultCache | None = None,
              progress: ProgressFn | None = None,
              retries: int = DEFAULT_RETRIES,
              timeout: float | None = None,
              fail_fast: bool = False,
              faults: FaultPlan | None = None,
              backoff: float = DEFAULT_BACKOFF,
              sanitize: bool | None = None,
              checkpoints: CheckpointPlan | None = None,
              on_outcome: OutcomeFn | None = None) -> BatchReport:
    """Execute jobs (parallel, cached, fault-isolated); return the report.

    Never raises for a job failure: each job's fate is a
    :class:`JobOutcome` and every completed result is cached as it
    arrives.  ``fail_fast=True`` stops dispatching new jobs after the
    first failure (already-running jobs still complete and are recorded;
    undispatched jobs become ``"skipped"``).

    ``timeout`` is the per-job wall-clock deadline in seconds; on the
    pool, a worker still running ``max(2, timeout/2)`` seconds past it
    is killed and its attempt typed a timeout.

    ``sanitize`` arms the in-flight invariant sanitizer in every job;
    ``checkpoints`` (a :class:`~repro.harness.checkpoints.CheckpointPlan`)
    makes every attempt periodically snapshot its simulation and start by
    resuming the newest stored snapshot, turning worker crashes and
    cooperative timeouts into at-most-one-interval losses (see the module
    docstring's resilience model).  Neither changes any result.

    ``on_outcome`` is called with each :class:`JobOutcome` the moment it
    reaches a terminal state (after any caching), so callers that keep
    their own durable record — the campaign journal — never trail the
    engine by more than one job.
    """
    jobs = list(jobs)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if retries < 0:
        raise ValueError(f"retries must be >= 0, got {retries}")
    if timeout is not None and timeout < 0:
        raise ValueError(f"timeout must be >= 0, got {timeout}")
    fingerprints = [job.fingerprint() for job in jobs]
    state = _BatchState(jobs, fingerprints, cache, progress, sanitize,
                        checkpoints, on_outcome)
    state.event("batch.start", jobs=len(jobs), workers=workers,
                retries=retries, timeout=timeout,
                sanitize=bool(sanitize),
                checkpoint_interval=(checkpoints.interval
                                     if checkpoints is not None else None))

    pending: deque[int] = deque()
    for index, fingerprint in enumerate(fingerprints):
        cached = cache.get(fingerprint) if cache is not None else None
        if cached is not None:
            state.record_cached(index, cached)
        else:
            pending.append(index)

    policy = dict(retries=retries, timeout=timeout, backoff=backoff,
                  fail_fast=fail_fast)
    workers = min(workers, len(pending))
    if workers <= 1:
        _drain(state, pending, partial(run_in_process, faults=faults),
               **policy)
    else:
        from .pool import WorkerPool   # only parallel batches fork
        errors: list[Exception] = []

        def drive() -> None:
            try:
                _drain(state, pending, pool.run, **policy)
            except Exception as error:   # noqa: BLE001 - re-raised below
                errors.append(error)

        with WorkerPool(workers, faults=faults,
                        on_event=state.event) as pool:
            threads = [threading.Thread(target=drive, daemon=True,
                                        name=f"repro-batch-{n}")
                       for n in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        if errors:
            raise errors[0]

    report = BatchReport(outcomes=state.outcomes, events=state.events,
                         started=state.started,
                         elapsed=time.monotonic() - state.started,
                         checkpoint_corrupt=state.checkpoint_corrupt)
    state.event("batch.end", summary=report.summary_line())
    return report


def run_jobs(jobs: Iterable[SimJob], *, workers: int = 1,
             cache: ResultCache | None = None,
             progress: ProgressFn | None = None,
             retries: int = DEFAULT_RETRIES,
             timeout: float | None = None,
             faults: FaultPlan | None = None,
             sanitize: bool | None = None,
             checkpoints: CheckpointPlan | None = None) -> list[RunResult]:
    """Execute jobs and return results in input order.

    The raising wrapper over :func:`run_batch`: if any job fails, a
    :class:`JobExecutionError` for the first failure is raised — but only
    after the *whole* batch has run and every completed result has been
    recorded and cached (an early failure never discards later successes).
    """
    report = run_batch(jobs, workers=workers, cache=cache, progress=progress,
                       retries=retries, timeout=timeout, faults=faults,
                       sanitize=sanitize, checkpoints=checkpoints)
    failure = report.first_failure()
    if failure is not None:
        raise JobExecutionError(failure.fingerprint,
                                failure.error or failure.status,
                                failure.worker_traceback)
    return [outcome.result for outcome in report.outcomes]
