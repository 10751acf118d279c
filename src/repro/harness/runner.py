"""One-call simulation front end.

:func:`simulate` builds a GPU, runs a CTA-scheduling policy to completion
and assembles a :class:`~repro.sim.stats.RunResult`.  Every experiment,
example and test goes through this function.
"""

from __future__ import annotations

import os
from typing import Sequence

from ..core.cta_schedulers import CTAScheduler, RoundRobinCTAScheduler
from ..sim.checkpoint import CheckpointRecorder, Snapshot
from ..sim.config import GPUConfig
from ..sim.gpu import GPU
from ..sim.invariants import ENV_SANITIZE, InvariantSanitizer
from ..sim.kernel import Kernel
from ..sim.stats import CacheStats, RunResult
from ..telemetry.hub import TelemetryHub
from .validate import validate_backend


def simulate(kernels: Kernel | Sequence[Kernel], *,
             config: GPUConfig | None = None,
             warp_scheduler="gto",
             cta_scheduler: CTAScheduler | None = None,
             telemetry: TelemetryHub | None = None,
             wall_timeout: float | None = None,
             sanitize: bool | None = None,
             checkpoint: CheckpointRecorder | None = None,
             resume_from: Snapshot | None = None,
             saboteur=None,
             backend: str = "object") -> RunResult:
    """Run kernels to completion and return the collected statistics.

    Parameters
    ----------
    kernels:
        One kernel or a sequence (multi-kernel runs need a CKE-capable
        ``cta_scheduler``; the default round-robin runs them first-come
        first-served over shared cores).
    config:
        Hardware description; defaults to the Fermi-class `GPUConfig()`.
    warp_scheduler:
        ``'lrr'``, ``'gto'``, ``'baws'``, ``'two-level'``, ``'swl'`` — or a
        zero-arg factory returning a WarpScheduler (e.g.
        :func:`repro.core.warp_schedulers.swl_factory`).
    cta_scheduler:
        A policy object from ``repro.core``; defaults to the conventional
        round-robin maximum-occupancy baseline.  Must not have been used in
        a previous run (policies hold per-run state).
    telemetry:
        An optional :class:`~repro.telemetry.TelemetryHub`.  When provided,
        the windowed timeline lands in ``result.meta["timeline"]`` (a
        :class:`~repro.telemetry.TimelineResult`) and the structured event
        trace in ``result.meta["trace"]`` (a list of plain dicts).  Neither
        perturbs the simulated statistics.  Hubs are single-use, like
        policy objects.
    wall_timeout:
        Optional wall-clock budget in seconds: a run that exceeds it
        raises a typed :class:`~repro.sim.gpu.SimulationTimeout` instead
        of running (or hanging) indefinitely.  The guard never perturbs
        the statistics of runs that finish in time.
    sanitize:
        Arm the in-flight invariant sanitizer
        (:mod:`repro.sim.invariants`): conservation laws are checked every
        :data:`~repro.sim.invariants.DEFAULT_SANITIZE_INTERVAL` cycles and a
        violation raises a typed ``InvariantViolation``.  ``None`` (the
        default) defers to the ``REPRO_SANITIZE`` environment variable so
        CI can sanitize whole suites.  A clean sanitized run is
        bitwise-identical to an unsanitized one (checks read state only).
    checkpoint:
        A :class:`~repro.sim.checkpoint.CheckpointRecorder`: the whole
        machine state is snapshotted every ``checkpoint.interval`` cycles
        (and on a cooperative timeout) into the recorder's sink.
    resume_from:
        A :class:`~repro.sim.checkpoint.Snapshot` to continue instead of
        starting at cycle zero.  ``kernels`` must be rebuilt from the same
        job description that produced the snapshot; ``cta_scheduler``,
        ``config``, ``warp_scheduler`` and ``telemetry`` are taken from
        the snapshot itself and must not be passed.  The resumed run's
        final statistics are bitwise-identical to an uninterrupted run.
    saboteur:
        Fault-injection hook (``FaultPlan.run_saboteur``) that kills or
        corrupts the run at a chosen cycle; test/drill use only.
    backend:
        ``'object'`` (default) — the per-object reference core; or
        ``'vector'`` — the array-oriented core (:mod:`repro.sim.vector`),
        bitwise-identical results at a fraction of the wall clock.  The
        vector core supports the named ``lrr``/``gto``/``baws`` warp
        schedulers and no checkpoint/resume/fault-injection riders.
    """
    validate_backend(backend)
    if isinstance(kernels, Kernel):
        kernels = [kernels]
    kernels = list(kernels)
    if resume_from is not None:
        if backend != "object":
            raise ValueError("resume_from restores an object-core GPU; "
                             "use backend='object'")
        if cta_scheduler is not None or telemetry is not None:
            raise ValueError("resume_from restores the snapshotted "
                             "scheduler and telemetry hub; do not pass "
                             "cta_scheduler/telemetry as well")
        gpu = resume_from.restore(kernels)
        if config is not None and config != gpu.config:
            raise ValueError("resume_from snapshot was taken under a "
                             "different hardware configuration")
        config = gpu.config
        cta_scheduler = gpu.cta_scheduler
        telemetry = gpu.telemetry
    else:
        if cta_scheduler is None:
            cta_scheduler = RoundRobinCTAScheduler(kernels)
        elif cta_scheduler.gpu is not None:
            raise ValueError("cta_scheduler was already used in a previous "
                             "run; create a fresh policy object per "
                             "simulate() call")
        else:
            scheduled = {id(k) for k in cta_scheduler.kernels}
            if scheduled != {id(k) for k in kernels}:
                raise ValueError("cta_scheduler was built for different "
                                 "kernels")
        config = config if config is not None else GPUConfig()
        if backend == "vector":
            if checkpoint is not None or saboteur is not None:
                raise ValueError(
                    "the vector backend does not support checkpoint "
                    "recording or fault injection; use backend='object'")
            from ..sim.vector import VectorGPU
            gpu = VectorGPU(config=config, warp_scheduler=warp_scheduler,
                            telemetry=telemetry)
        else:
            gpu = GPU(config=config, warp_scheduler=warp_scheduler,
                      telemetry=telemetry)

    if sanitize is None:
        sanitize = bool(os.environ.get(ENV_SANITIZE, "").strip())
    sanitizer = InvariantSanitizer() if sanitize else None
    gpu.run(None if resume_from is not None else cta_scheduler,
            wall_timeout=wall_timeout, sanitizer=sanitizer,
            checkpoint=checkpoint, saboteur=saboteur,
            resume_from=resume_from)
    return collect_result(gpu, kernels)


def collect_result(gpu: GPU, kernels: Sequence[Kernel]) -> RunResult:
    """Assemble the :class:`RunResult` of a finished run on ``gpu``.

    ``kernels`` are the kernels the run was asked for, in caller order
    (``meta["kernels"]``); the policy and telemetry hub are read from the
    GPU they ran on.
    """
    cta_scheduler = gpu.cta_scheduler
    telemetry = gpu.telemetry
    l1_total = CacheStats()
    for sm in gpu.sms:
        l1_total.add(sm.l1.stats)
    kernel_stats = {run.kernel.name: run.stats for run in gpu.runs}
    meta: dict = {
        "warp_scheduler": gpu.warp_scheduler_name,
        "cta_scheduler": cta_scheduler.name,
        "num_sms": gpu.config.num_sms,
        "kernels": [k.name for k in kernels],
        # LCS-style policies expose their monitoring outcome.
        "lcs_decision": getattr(cta_scheduler, "decision", None),
    }
    if telemetry is not None:
        timeline = telemetry.timeline_result()
        if timeline is not None:
            meta["timeline"] = timeline
        if telemetry.trace_enabled:
            meta["trace"] = telemetry.trace_events()
    return RunResult(
        cycles=gpu.cycle,
        instructions=gpu.total_issued,
        kernels=kernel_stats,
        l1=l1_total,
        l2=gpu.mem.l2_stats(),
        dram=gpu.mem.dram.stats,
        issued_by_sm=[sm.issued for sm in gpu.sms],
        cta_limits=cta_scheduler.limits_snapshot(),
        meta=meta,
    )
