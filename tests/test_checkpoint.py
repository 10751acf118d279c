"""Checkpoint/resume and invariant-sanitizer tests.

The contracts that matter most:

* **resume equivalence** — a run interrupted at an arbitrary checkpoint
  and resumed (in-process or through the engine's kill/timeout recovery)
  produces **bitwise-identical** final statistics to the uninterrupted
  run, for every CTA-scheduler x warp-scheduler combination;
* **cross-process determinism** — the same job executed twice in separate
  worker processes yields identical statistics fingerprints (the property
  resume equivalence rests on);
* **sanitizer soundness** — a clean run sanitized is byte-identical to an
  unsanitized one, and injected live-state corruption fails with a typed
  ``InvariantViolation`` at the next window boundary instead of silently
  completing with wrong statistics;
* **store robustness** — corrupt checkpoint files are quarantined and the
  next-newest snapshot is used, never a crash.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import pickle

import pytest

from repro.harness.checkpoints import (KEEP_PER_JOB, CheckpointPlan,
                                       CheckpointStore)
from repro.harness.engine import run_batch
from repro.harness.faults import FaultPlan
from repro.harness.jobs import SimJob, build_policy, build_warp_scheduler
from repro.harness.runner import simulate
from repro.sim.checkpoint import (CHECKPOINT_VERSION, CheckpointError,
                                  CheckpointRecorder, Snapshot)
from repro.sim.config import GPUConfig
from repro.sim.gpu import GPU, SimulationTimeout
from repro.sim.invariants import InvariantSanitizer, InvariantViolation
from repro.sim.sm import PREFETCH
from repro.sim.vector import VectorGPU
from repro.telemetry.hub import TelemetryHub

SCALE = 0.05
SMALL = GPUConfig.small()

#: CTA-policy descriptors of the acceptance matrix (single- and
#: multi-kernel: RR, LCS, BCS pairing and the mixed CKE scheduler).
POLICIES = [
    (("kmeans",), ("rr",)),
    (("kmeans",), ("lcs",)),
    (("kmeans", "bfs"), ("bcs", 2, None)),
    (("kmeans", "bfs"), ("mixed", "tail", None)),
]
WARPS = ["lrr", "gto"]


def fingerprint_result(result) -> str:
    """A canonical digest of every statistic a run produces."""
    canonical = json.dumps(result.to_dict(), sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _job(names, policy, warp="gto", scale=SCALE, **kwargs):
    return SimJob(names=names, scale=scale, policy=policy, warp=warp,
                  config=SMALL, **kwargs)


# --------------------------------------------------------------------------- #
# snapshot capture/restore round trip
# --------------------------------------------------------------------------- #

@pytest.mark.parametrize("names,policy", POLICIES,
                         ids=[p[1][0] for p in POLICIES])
@pytest.mark.parametrize("warp", WARPS)
def test_resume_is_bitwise_identical(names, policy, warp):
    """Interrupt at every captured checkpoint; resume must match exactly."""
    job = _job(names, policy, warp)
    reference = fingerprint_result(job.execute())

    snapshots: list[Snapshot] = []
    recorder = CheckpointRecorder(
        400, lambda snapshot: bool(snapshots.append(snapshot)) or True)
    kernels = job.build_kernels()
    checkpointed = simulate(kernels, config=SMALL,
                            warp_scheduler=build_warp_scheduler(job.warp),
                            cta_scheduler=build_policy(job.policy, kernels),
                            checkpoint=recorder)
    assert fingerprint_result(checkpointed) == reference, \
        "checkpointing perturbed the run"
    assert snapshots, "run too short to checkpoint; lower the interval"

    # First, middle and last snapshot: resume each with fresh kernels.
    picks = {0, len(snapshots) // 2, len(snapshots) - 1}
    for position in sorted(picks):
        snapshot = snapshots[position]
        resumed = simulate(job.build_kernels(), resume_from=snapshot)
        assert fingerprint_result(resumed) == reference, \
            f"resume from cycle {snapshot.cycle} diverged"


def test_resume_preserves_telemetry():
    """Timeline + trace riders survive snapshot/restore bit-for-bit."""
    job = _job(("kmeans",), ("lcs",), timeline_window=250, trace=True)
    reference = job.execute()

    snapshots: list[Snapshot] = []
    recorder = CheckpointRecorder(
        700, lambda snapshot: bool(snapshots.append(snapshot)) or True)
    kernels = job.build_kernels()
    simulate(kernels, config=SMALL,
             warp_scheduler=build_warp_scheduler(job.warp),
             cta_scheduler=build_policy(job.policy, kernels),
             telemetry=TelemetryHub(window=250, trace=True),
             checkpoint=recorder)

    resumed = simulate(job.build_kernels(), resume_from=snapshots[0])
    assert fingerprint_result(resumed) == fingerprint_result(reference)
    assert resumed.meta["trace"] == reference.meta["trace"]


def _windowed_run(job, recorder, *, wall_timeout=None, resume_from=None):
    """Run ``job`` (which carries a telemetry window) under ``recorder``,
    from cycle zero or from a snapshot."""
    kernels = job.build_kernels()
    if resume_from is not None:
        return simulate(kernels, checkpoint=recorder,
                        wall_timeout=wall_timeout, resume_from=resume_from)
    return simulate(kernels, config=SMALL,
                    warp_scheduler=build_warp_scheduler(job.warp),
                    cta_scheduler=build_policy(job.policy, kernels),
                    telemetry=TelemetryHub(window=job.timeline_window,
                                           trace=job.trace),
                    checkpoint=recorder, wall_timeout=wall_timeout)


def test_resume_at_every_window_boundary_snapshot():
    """Snapshots taken exactly at window boundaries (checkpoint interval a
    multiple of the window) resume onto the next unclosed window: no
    window is sampled twice or skipped."""
    job = _job(("kmeans",), ("lcs",), timeline_window=250, trace=True,
               scale=0.03)
    reference = job.execute()

    snapshots: list[Snapshot] = []
    recorder = CheckpointRecorder(
        1000, lambda snapshot: bool(snapshots.append(snapshot)) or True)
    _windowed_run(job, recorder)
    assert sum(snapshot.cycle % 250 == 0 for snapshot in snapshots) >= 10

    for snapshot in snapshots:
        resumed = simulate(job.build_kernels(), resume_from=snapshot)
        assert resumed.meta["timeline"] == reference.meta["timeline"], \
            f"timeline diverged resuming from cycle {snapshot.cycle}"
        assert resumed.meta["trace"] == reference.meta["trace"]
        assert fingerprint_result(resumed) == fingerprint_result(reference)


def test_wall_timeout_resume_chain_is_bitwise_identical():
    """A chain of short wall-clock runs, each resumed from its timeout
    snapshot with a window armed, equals the uninterrupted run: windows
    due at the timeout cycle close before the snapshot is taken.  A
    one-cycle window has a boundary due at every loop top, so every
    timeout in the chain lands on one."""
    job = _job(("kmeans",), ("lcs",), timeline_window=1, trace=True,
               scale=0.02)
    reference = job.execute()

    snapshots: list[Snapshot] = []
    recorder = CheckpointRecorder(
        10**9, lambda snapshot: bool(snapshots.append(snapshot)) or True)
    snapshot = None
    for links in range(1, 2001):
        try:
            result = _windowed_run(job, recorder, wall_timeout=0.02,
                                   resume_from=snapshot)
            break
        except SimulationTimeout as timeout:
            assert timeout.checkpoint_cycle == snapshots[-1].cycle
            snapshot = snapshots[-1]
    else:
        pytest.fail("wall-timeout chain made no progress")
    assert links > 1, "the run finished before its first timeout"
    assert result.meta["timeline"] == reference.meta["timeline"]
    assert result.meta["trace"] == reference.meta["trace"]
    assert fingerprint_result(result) == fingerprint_result(reference)


def test_snapshot_restore_validates():
    job = _job(("kmeans",), ("rr",))
    kernels = job.build_kernels()
    snapshots = []
    recorder = CheckpointRecorder(
        400, lambda snapshot: bool(snapshots.append(snapshot)) or True)
    simulate(kernels, config=SMALL,
             cta_scheduler=build_policy(job.policy, kernels),
             checkpoint=recorder)
    snapshot = snapshots[0]

    with pytest.raises(CheckpointError, match="version"):
        Snapshot(version=CHECKPOINT_VERSION + 1, cycle=snapshot.cycle,
                 kernels=snapshot.kernels,
                 payload=snapshot.payload).restore(job.build_kernels())
    wrong = SimJob(names=("bfs",), scale=SCALE, config=SMALL).build_kernels()
    with pytest.raises(CheckpointError, match="kernels"):
        snapshot.restore(wrong)
    with pytest.raises(CheckpointError, match="corrupt"):
        Snapshot(version=snapshot.version, cycle=snapshot.cycle,
                 kernels=snapshot.kernels,
                 payload=snapshot.payload[:100]).restore(job.build_kernels())


def test_resume_rejects_conflicting_arguments():
    job = _job(("kmeans",), ("rr",))
    kernels = job.build_kernels()
    snapshots = []
    recorder = CheckpointRecorder(
        400, lambda snapshot: bool(snapshots.append(snapshot)) or True)
    simulate(kernels, config=SMALL,
             cta_scheduler=build_policy(job.policy, kernels),
             checkpoint=recorder)
    fresh = job.build_kernels()
    with pytest.raises(ValueError, match="resume_from"):
        simulate(fresh, resume_from=snapshots[0],
                 cta_scheduler=build_policy(job.policy, fresh))
    with pytest.raises(ValueError, match="configuration"):
        simulate(job.build_kernels(), resume_from=snapshots[0],
                 config=GPUConfig())


def test_prefetch_sentinel_survives_pickling():
    """The LDST port's identity-compared marker must stay a singleton."""
    assert pickle.loads(pickle.dumps(PREFETCH)) is PREFETCH


# --------------------------------------------------------------------------- #
# engine drills: kill-resume, timeout-resume
# --------------------------------------------------------------------------- #

@pytest.mark.parametrize("names,policy", POLICIES,
                         ids=[p[1][0] for p in POLICIES])
@pytest.mark.parametrize("warp", WARPS)
def test_kill_resume_drill(tmp_path, names, policy, warp):
    """A mid-run worker death resumes from checkpoint, results identical."""
    job = _job(names, policy, warp)
    reference = fingerprint_result(job.execute())

    plan = CheckpointPlan(interval=500, root=tmp_path / "ckpt")
    faults = FaultPlan.parse("kill-at:0:1500",
                             state_dir=str(tmp_path / "faults"))
    report = run_batch([job], workers=1, retries=2, faults=faults,
                       checkpoints=plan, backoff=0.0)
    outcome = report.outcomes[0]
    assert outcome.status == "ok"
    assert outcome.attempts == 2
    assert outcome.resumed_from is not None
    assert outcome.resumed_from < 1500
    assert fingerprint_result(outcome.result) == reference
    assert any(event["kind"] == "job.resumed" for event in report.events)
    # Checkpoints of a completed job are discarded.
    assert len(CheckpointStore(tmp_path / "ckpt")) == 0


def test_kill_resume_drill_in_pool(tmp_path):
    """Same drill with a real worker process dying via os._exit."""
    job = _job(("kmeans",), ("lcs",))
    reference = fingerprint_result(job.execute())
    plan = CheckpointPlan(interval=500, root=tmp_path / "ckpt")
    faults = FaultPlan.parse("kill-at:0:1500",
                             state_dir=str(tmp_path / "faults"))
    report = run_batch([job, job], workers=2, retries=2, faults=faults,
                       checkpoints=plan, backoff=0.0)
    outcome = report.outcomes[0]
    assert outcome.status == "ok"
    assert outcome.resumed_from is not None
    assert fingerprint_result(outcome.result) == reference


def test_timeout_resume_makes_forward_progress(tmp_path):
    """Cooperative timeouts re-dispatch from the newest checkpoint."""
    job = SimJob(names=("kmeans",), scale=0.08, policy=("lcs",))
    import time
    started = time.monotonic()
    reference = fingerprint_result(job.execute())
    full_wall = time.monotonic() - started

    plan = CheckpointPlan(interval=400, root=tmp_path / "ckpt")
    report = run_batch([job], workers=1, retries=30, timeout=full_wall / 3,
                       checkpoints=plan, backoff=0.0)
    outcome = report.outcomes[0]
    assert outcome.status == "ok"
    assert outcome.attempts > 1
    assert outcome.resumed_from is not None
    assert fingerprint_result(outcome.result) == reference
    assert any(event["payload"].get("reason") == "timeout-resume"
               for event in report.events if event["kind"] == "job.retry")


def test_timeout_without_checkpoints_reports_progress():
    """A bare timeout is terminal but reports partial progress."""
    job = SimJob(names=("kmeans", "bfs"), scale=0.2, policy=("rr",))
    report = run_batch([job], workers=1, retries=3, timeout=0.05)
    outcome = report.outcomes[0]
    assert outcome.status == "timeout"
    assert outcome.attempts == 1   # no checkpoint => no resume-retry
    assert outcome.progress is not None
    assert outcome.progress["kind"] == "wall"
    assert outcome.progress["cycle"] > 0
    assert outcome.progress["checkpoint_cycle"] is None


def test_simulation_timeout_carries_progress_fields():
    job = SimJob(names=("kmeans", "bfs"), scale=0.2, policy=("rr",))
    with pytest.raises(SimulationTimeout) as excinfo:
        job.execute(wall_timeout=0.05)
    error = excinfo.value
    assert error.kind == "wall"
    assert error.cycle is not None and error.cycle > 0
    assert error.max_cycles is not None
    assert error.checkpoint_cycle is None


# --------------------------------------------------------------------------- #
# cross-process determinism (the property resume rests on)
# --------------------------------------------------------------------------- #

def test_same_job_is_deterministic_across_worker_processes():
    job = _job(("kmeans", "bfs"), ("bcs", 2, None))
    report = run_batch([job, job], workers=2)
    results = [outcome.result for outcome in report.outcomes]
    assert all(result is not None for result in results)
    assert (fingerprint_result(results[0])
            == fingerprint_result(results[1]))


# --------------------------------------------------------------------------- #
# invariant sanitizer
# --------------------------------------------------------------------------- #

def test_sanitized_run_is_bitwise_identical():
    job = _job(("kmeans",), ("lcs",))
    reference = fingerprint_result(job.execute())
    sanitized = job.execute(sanitize=True)
    assert fingerprint_result(sanitized) == reference


def test_sanitizer_catches_injected_corruption(tmp_path):
    """--faults corrupt:K:CYCLE + --sanitize => typed failure, no retry."""
    job = _job(("kmeans",), ("lcs",))
    faults = FaultPlan.parse("corrupt:0:1000",
                             state_dir=str(tmp_path / "faults"))
    report = run_batch([job], workers=1, retries=3, faults=faults,
                       sanitize=True)
    outcome = report.outcomes[0]
    assert outcome.status == "failed"
    assert outcome.attempts == 1   # deterministic: never retried
    assert "invariant" in outcome.error
    assert "sm-accounting" in outcome.error
    # The violation is reported at a window boundary at/after injection.
    assert "cycle 1000" in outcome.error


def test_unsanitized_corruption_completes_silently(tmp_path):
    """The gap --sanitize closes: without it, wrong stats come back ok.

    ``sanitize=False`` explicitly (not None) so a CI run with
    ``REPRO_SANITIZE=1`` in the environment still tests the *off* path.
    """
    job = _job(("kmeans",), ("lcs",))
    faults = FaultPlan.parse("corrupt:0:1000",
                             state_dir=str(tmp_path / "faults"))
    report = run_batch([job], workers=1, faults=faults, sanitize=False)
    assert report.outcomes[0].status == "ok"


def test_sanitizer_raises_directly_via_simulate(tmp_path):
    job = _job(("kmeans",), ("rr",))
    faults = FaultPlan.parse("corrupt:0:1000",
                             state_dir=str(tmp_path / "faults"))
    with pytest.raises(InvariantViolation) as excinfo:
        job.execute(sanitize=True, saboteur=faults.run_saboteur(0))
    assert excinfo.value.check == "sm-accounting"
    assert excinfo.value.cycle >= 1000


class _DropOneWake:
    """Saboteur that removes one pending ALU wake from the GPU's calendar
    at the first loop-top service at or after ``at`` that finds one."""

    def __init__(self, at: int) -> None:
        self.at = at
        self.done = False

    def fire(self, gpu, cycle: int) -> None:
        for bucket in gpu._wake_cal.values():
            bucket.pop()
            self.done = True
            return


@pytest.mark.parametrize("gpu_class", [GPU, VectorGPU],
                         ids=["object", "vector"])
def test_sanitizer_catches_a_dropped_calendar_wake(gpu_class):
    # Driven through GPU.run directly: simulate() takes no saboteur on
    # the vector core.
    job = _job(("compute",), ("rr",))
    kernels = job.build_kernels()
    gpu = gpu_class(config=job.config, warp_scheduler=job.warp)
    saboteur = _DropOneWake(at=1000)
    with pytest.raises(InvariantViolation) as excinfo:
        gpu.run(build_policy(job.policy, kernels),
                sanitizer=InvariantSanitizer(), saboteur=saboteur)
    assert saboteur.done
    assert excinfo.value.check == "wake-calendar"
    assert "WAIT_ALU" in str(excinfo.value)


class _ForgeEventCalendar:
    """Saboteur that breaks the event queue's calendar one way, at the
    first loop-top service at or after ``at`` with two pending cycles."""

    def __init__(self, at: int, kind: str) -> None:
        self.at = at
        self.kind = kind
        self.done = False

    def fire(self, gpu, cycle: int) -> None:
        events = gpu.events
        heap = events._heap
        if len(heap) < 2:
            return
        head = heap[0]
        if self.kind == "lost-cycle":
            heap.remove(head)
            heapq.heapify(heap)
        elif self.kind == "duplicate-cycle":
            heapq.heappush(heap, head)
        elif self.kind == "out-of-order":
            heap[0], heap[-1] = heap[-1], heap[0]
        elif self.kind == "empty-bucket":
            events._buckets[head].clear()
        else:   # overdue: an event left behind before the current cycle
            events.schedule(cycle - 1, lambda now, arg: None)
        self.done = True


@pytest.mark.parametrize("kind, message", [
    ("lost-cycle", "exactly once"), ("duplicate-cycle", "exactly once"),
    ("out-of-order", "out of order"), ("empty-bucket", "is empty"),
    ("overdue", "still pending"),
])
def test_sanitizer_catches_a_forged_event_calendar(kind, message):
    job = _job(("kmeans",), ("rr",))
    kernels = job.build_kernels()
    gpu = GPU(config=job.config, warp_scheduler=job.warp)
    saboteur = _ForgeEventCalendar(at=1000, kind=kind)
    with pytest.raises(InvariantViolation) as excinfo:
        gpu.run(build_policy(job.policy, kernels),
                sanitizer=InvariantSanitizer(), saboteur=saboteur)
    assert saboteur.done
    assert excinfo.value.check == "event-calendar"
    assert message in str(excinfo.value)


def test_sanitize_env_variable(tmp_path, monkeypatch):
    from repro.sim.invariants import ENV_SANITIZE
    job = _job(("kmeans",), ("rr",))
    faults = FaultPlan.parse("corrupt:0:1000",
                             state_dir=str(tmp_path / "faults"))
    monkeypatch.setenv(ENV_SANITIZE, "1")
    with pytest.raises(InvariantViolation):
        job.execute(saboteur=faults.run_saboteur(0))


# --------------------------------------------------------------------------- #
# the checkpoint store
# --------------------------------------------------------------------------- #

def _snapshot_for(job: SimJob) -> list[Snapshot]:
    snapshots: list[Snapshot] = []
    recorder = CheckpointRecorder(
        400, lambda snapshot: bool(snapshots.append(snapshot)) or True)
    kernels = job.build_kernels()
    simulate(kernels, config=job.config,
             cta_scheduler=build_policy(job.policy, kernels),
             checkpoint=recorder)
    return snapshots


def test_store_round_trip_and_prune(tmp_path):
    job = _job(("kmeans",), ("rr",))
    snapshots = _snapshot_for(job)
    assert len(snapshots) >= 3
    store = CheckpointStore(tmp_path / "ckpt")
    fingerprint = job.fingerprint()
    for snapshot in snapshots:
        assert store.put(fingerprint, snapshot)
    # Pruned to the newest KEEP_PER_JOB entries; newest() is the latest.
    assert len(store) == KEEP_PER_JOB
    newest = store.newest(fingerprint)
    assert newest is not None
    assert newest.cycle == snapshots[-1].cycle
    assert newest.payload == snapshots[-1].payload
    # discard() empties the job's slot.
    assert store.discard(fingerprint) == KEEP_PER_JOB
    assert store.newest(fingerprint) is None


def test_store_quarantines_corrupt_newest(tmp_path):
    job = _job(("kmeans",), ("rr",))
    snapshots = _snapshot_for(job)
    store = CheckpointStore(tmp_path / "ckpt")
    fingerprint = job.fingerprint()
    for snapshot in snapshots[-2:]:
        store.put(fingerprint, snapshot)
    # Truncate the newest file: newest() must fall back to the runner-up.
    newest_path = store.path_for(fingerprint, snapshots[-1].cycle)
    newest_path.write_bytes(newest_path.read_bytes()[:64])
    recovered = store.newest(fingerprint)
    assert recovered is not None
    assert recovered.cycle == snapshots[-2].cycle
    assert store.corrupt_entries == 1
    assert not newest_path.exists()
    assert newest_path.with_name(newest_path.name + ".corrupt").exists()
    # And the recovered snapshot actually resumes correctly.
    reference = fingerprint_result(job.execute())
    resumed = simulate(job.build_kernels(), resume_from=recovered)
    assert fingerprint_result(resumed) == reference


def test_store_unwritable_degrades_gracefully(tmp_path):
    job = _job(("kmeans",), ("rr",))
    snapshot = _snapshot_for(job)[0]
    blocked = tmp_path / "blocked"
    blocked.write_text("a file where the store directory should be")
    store = CheckpointStore(blocked)
    with pytest.warns(RuntimeWarning, match="not writable"):
        assert not store.put(job.fingerprint(), snapshot)
    assert store.write_errors == 1


def test_engine_resumes_from_preexisting_checkpoint(tmp_path):
    """A checkpoint left by a previous invocation is picked up on rerun."""
    job = _job(("kmeans",), ("lcs",))
    reference = fingerprint_result(job.execute())
    plan = CheckpointPlan(interval=500, root=tmp_path / "ckpt")
    snapshots = _snapshot_for(job)
    plan.store().put(job.fingerprint(), snapshots[0])

    report = run_batch([job], workers=1, checkpoints=plan)
    outcome = report.outcomes[0]
    assert outcome.status == "ok"
    assert outcome.resumed_from == snapshots[0].cycle
    assert fingerprint_result(outcome.result) == reference


def test_engine_sets_aside_an_older_version_checkpoint(tmp_path):
    """A snapshot of an older machine shape (say, before the event queue
    became a calendar) is quarantined and the job restarts from cycle 0."""
    job = _job(("kmeans",), ("lcs",))
    reference = fingerprint_result(job.execute())
    plan = CheckpointPlan(interval=10**9, root=tmp_path / "ckpt")
    snapshot = _snapshot_for(job)[0]
    older = Snapshot(version=CHECKPOINT_VERSION - 1, cycle=snapshot.cycle,
                     kernels=snapshot.kernels, payload=snapshot.payload)
    plan.store().put(job.fingerprint(), older)

    report = run_batch([job], workers=1, checkpoints=plan)
    outcome = report.outcomes[0]
    assert outcome.status == "ok"
    assert outcome.resumed_from is None
    assert fingerprint_result(outcome.result) == reference
    # Quarantined on load, then swept with the finished job's files.
    assert len(plan.store()) == 0 and not plan.store().corrupt_strays()
