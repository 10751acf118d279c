"""Declarative simulation jobs.

A :class:`SimJob` is a pure *description* of one ``simulate()`` call: suite
benchmark names, grid scaling, the workload seed, a warp-scheduler
descriptor, a CTA-policy descriptor and the hardware configuration.  Jobs
carry no live objects — kernels and policy instances are constructed at
execution time (inside a worker process, for parallel runs), which
sidesteps the "policies hold per-run state" constraint of
:func:`repro.harness.runner.simulate` and keeps jobs picklable.

Every job has a stable, deterministic :meth:`~SimJob.fingerprint` — a
sha256 over a canonical JSON rendering of all inputs plus the
:data:`SIM_VERSION` salt — which keys the persistent result cache
(:mod:`repro.harness.cache`).  Bump :data:`SIM_VERSION` whenever a change
alters simulation *results*; old cache entries then miss and are recomputed.

Descriptor grammar (shared by :class:`ExperimentContext`, the sweeps and
the CLIs):

* warp: ``"lrr" | "gto" | "baws" | "two-level" | "swl"`` or ``("swl", K)``
* policy: ``("rr",)``, ``("static", N)``, ``("lcs",[ rule, param])``,
  ``("bcs", B, limit)``, ``("lcs+bcs", B, rule, param)``, ``("dyncta",)``,
  ``("depth-first",)``, ``("sequential",)``, ``("spatial",)``, ``("smk",)``,
  ``("mixed", rule, param)``
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Sequence

from ..core.bcs import BCSScheduler
from ..core.cke import MixedCKE, SequentialCKE, SMKEvenCKE, SpatialCKE
from ..core.combined import LCSBCSScheduler
from ..core.cta_schedulers import (CTAScheduler, DepthFirstCTAScheduler,
                                   RoundRobinCTAScheduler,
                                   StaticLimitCTAScheduler)
from ..core.dyncta import DynCTAScheduler
from ..core.lcs import LCSScheduler
from ..core.warp_schedulers import available_warp_schedulers, swl_factory
from ..sim.config import GPUConfig
from ..sim.kernel import Kernel
from ..workloads.patterns import DEFAULT_SEED
from ..workloads.suite import SUITE, make_kernel
from .validate import validate_backend

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.checkpoint import Snapshot
    from ..sim.stats import RunResult
    from .checkpoints import CheckpointPlan

#: Fingerprint salt.  Bump on any change that alters simulation results so
#: stale cache entries under ``.repro-cache/`` are recomputed, not reused.
SIM_VERSION = 1


class JobError(ValueError):
    """An invalid job description (unknown benchmark/warp/policy)."""


# --------------------------------------------------------------------------- #
# descriptor validation / construction
# --------------------------------------------------------------------------- #

#: policy kind -> number of accepted argument tuples (for validation).
_POLICY_ARITIES: dict[str, tuple[int, ...]] = {
    "rr": (0,),
    "static": (1,),
    "lcs": (0, 2),
    "bcs": (2,),
    "sequential": (0,),
    "spatial": (0,),
    "smk": (0,),
    "mixed": (2,),
    "dyncta": (0,),
    "depth-first": (0,),
    "lcs+bcs": (3,),
}


def validate_policy(policy: tuple) -> tuple:
    """Check a policy descriptor's shape; return it normalized to a tuple."""
    if not isinstance(policy, tuple) or not policy:
        raise JobError(f"policy descriptor must be a non-empty tuple, "
                       f"got {policy!r}")
    kind, *args = policy
    arities = _POLICY_ARITIES.get(kind)
    if arities is None:
        raise JobError(f"unknown policy descriptor {policy!r}; "
                       f"available kinds: {sorted(_POLICY_ARITIES)}")
    if len(args) not in arities:
        raise JobError(f"policy {kind!r} takes {arities} arguments, "
                       f"got {len(args)}: {policy!r}")
    return tuple(policy)


def validate_warp(warp: str | tuple) -> str | tuple:
    """Check a warp-scheduler descriptor; return it unchanged."""
    if isinstance(warp, tuple):
        if len(warp) != 2 or warp[0] != "swl" or not isinstance(warp[1], int):
            raise JobError(f"unknown warp descriptor {warp!r}; tuple form "
                           f"is ('swl', K)")
        return ("swl", warp[1])
    if warp not in available_warp_schedulers():
        raise JobError(f"unknown warp scheduler {warp!r}; available: "
                       f"{available_warp_schedulers()} or ('swl', K)")
    return warp


def build_policy(policy: tuple, kernels: Sequence[Kernel]) -> CTAScheduler:
    """Instantiate a fresh CTA scheduler from its descriptor."""
    kind, *args = validate_policy(policy)
    kernels = list(kernels)
    if kind == "rr":
        return RoundRobinCTAScheduler(kernels)
    if kind == "static":
        (limit,) = args
        return StaticLimitCTAScheduler(kernels, limit_per_sm=limit)
    if kind == "lcs":
        if args:
            rule, param = args
            return LCSScheduler(kernels, rule=rule, param=param)
        return LCSScheduler(kernels)
    if kind == "bcs":
        block, limit = args
        return BCSScheduler(kernels, block_size=block, limit_per_sm=limit)
    if kind == "sequential":
        return SequentialCKE(kernels)
    if kind == "spatial":
        return SpatialCKE(kernels)
    if kind == "smk":
        return SMKEvenCKE(kernels)
    if kind == "mixed":
        rule, param = args
        return MixedCKE(kernels, rule=rule, param=param)
    if kind == "dyncta":
        return DynCTAScheduler(kernels)
    if kind == "depth-first":
        return DepthFirstCTAScheduler(kernels)
    block, rule, param = args   # kind == "lcs+bcs"
    return LCSBCSScheduler(kernels, block_size=block, rule=rule, param=param)


def build_warp_scheduler(warp: str | tuple):
    """Resolve a warp descriptor to what ``simulate()`` accepts."""
    warp = validate_warp(warp)
    if isinstance(warp, tuple):
        return swl_factory(warp[1])
    return warp


# --------------------------------------------------------------------------- #
# job descriptions
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class KernelSpec:
    """A declarative suite-kernel reference (name + scale + seed).

    The oracle sweep accepts this in place of a live :class:`Kernel` so the
    per-limit simulations can be described as jobs and fanned out / cached.
    """

    name: str
    scale: float = 1.0
    seed: int = DEFAULT_SEED

    def __post_init__(self) -> None:
        if self.name not in SUITE:
            raise JobError(f"unknown benchmark {self.name!r}; "
                           f"available: {sorted(SUITE)}")

    def build(self) -> Kernel:
        return make_kernel(self.name, scale=self.scale, seed=self.seed)


@dataclass(frozen=True)
class SimJob:
    """A picklable description of one simulation run."""

    names: tuple[str, ...]
    scale: float = 1.0
    seed: int = DEFAULT_SEED
    scale_mults: tuple[float, ...] | None = None
    warp: str | tuple = "gto"
    policy: tuple = ("rr",)
    config: GPUConfig = field(default_factory=GPUConfig)
    # Telemetry riders: a sampling window (cycles) and/or an event trace.
    # Both default off and only then join the fingerprint payload, so
    # telemetry-free jobs keep their pre-telemetry fingerprints (and cache
    # entries) while telemetry-bearing results are cached separately.
    timeline_window: int | None = None
    trace: bool = False
    # Which simulator core executes the job.  Never part of the
    # fingerprint: the backends are bitwise-identical by contract
    # (enforced by repro-verify's backend-parity layer), so a cached
    # result is valid whichever core produced it.
    backend: str = "object"

    def __post_init__(self) -> None:
        names = ((self.names,) if isinstance(self.names, str)
                 else tuple(self.names))
        if not names:
            raise JobError("a job needs at least one kernel name")
        for name in names:
            if name not in SUITE:
                raise JobError(f"unknown benchmark {name!r}; "
                               f"available: {sorted(SUITE)}")
        mults = self.scale_mults
        if mults is None:
            mults = (1.0,) * len(names)
        mults = tuple(float(m) for m in mults)
        if len(mults) != len(names):
            raise JobError(f"scale_mults has {len(mults)} entries for "
                           f"{len(names)} kernels")
        warp = validate_warp(tuple(self.warp) if isinstance(self.warp, list)
                             else self.warp)
        policy = validate_policy(tuple(self.policy))
        if self.timeline_window is not None and self.timeline_window < 1:
            raise JobError("timeline_window must be >= 1 (or None)")
        try:
            validate_backend(self.backend)
        except ValueError as exc:
            raise JobError(str(exc)) from None
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "scale_mults", mults)
        object.__setattr__(self, "warp", warp)
        object.__setattr__(self, "policy", policy)

    # ------------------------------------------------------------------ #
    def fingerprint(self) -> str:
        """sha256 over a canonical JSON of all inputs + the version salt.

        Computed once per job object and stored on it, keyed by
        :data:`SIM_VERSION`: a job is frozen, so only the salt can change
        its digest.  The memo is a plain attribute, not a field, so
        ``==``, ``hash``, ``repr`` and :meth:`to_payload` ignore it and
        :func:`dataclasses.replace` starts the new job without one.
        """
        memo = self.__dict__.get("_fingerprint")
        if memo is not None and memo[0] == SIM_VERSION:
            return memo[1]
        payload = {
            "version": SIM_VERSION,
            "names": list(self.names),
            "scale": self.scale,
            "seed": self.seed,
            "scale_mults": list(self.scale_mults),
            "warp": (list(self.warp) if isinstance(self.warp, tuple)
                     else self.warp),
            "policy": list(self.policy),
            "config": {f.name: getattr(self.config, f.name)
                       for f in fields(self.config)},
        }
        # Only telemetry-bearing jobs carry these keys: adding them
        # unconditionally would orphan every pre-telemetry cache entry.
        if self.timeline_window is not None:
            payload["timeline_window"] = self.timeline_window
        if self.trace:
            payload["trace"] = True
        canonical = json.dumps(payload, sort_keys=True,
                               separators=(",", ":"))
        digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
        object.__setattr__(self, "_fingerprint", (SIM_VERSION, digest))
        return digest

    # ------------------------------------------------------------------ #
    def to_payload(self) -> dict:
        """A JSON-compatible rendering; inverse of :meth:`from_payload`.

        Campaign manifests (:mod:`repro.design.campaign`) persist jobs in
        this form so an interrupted sweep resumes without re-declaring —
        or even re-parsing — its design.
        """
        return {
            "names": list(self.names),
            "scale": self.scale,
            "seed": self.seed,
            "scale_mults": list(self.scale_mults),
            "warp": (list(self.warp) if isinstance(self.warp, tuple)
                     else self.warp),
            "policy": list(self.policy),
            "config": {f.name: getattr(self.config, f.name)
                       for f in fields(self.config)},
            "timeline_window": self.timeline_window,
            "trace": self.trace,
            "backend": self.backend,
        }

    @classmethod
    def from_payload(cls, data: dict) -> "SimJob":
        """Rebuild a job from :meth:`to_payload` output (validated)."""
        warp = data.get("warp", "gto")
        if isinstance(warp, list):
            warp = tuple(warp)
        return cls(names=tuple(data["names"]), scale=data["scale"],
                   seed=data["seed"],
                   scale_mults=tuple(data["scale_mults"]),
                   warp=warp, policy=tuple(data["policy"]),
                   config=GPUConfig(**data["config"]),
                   timeline_window=data.get("timeline_window"),
                   trace=bool(data.get("trace", False)),
                   backend=data.get("backend", "object"))

    # ------------------------------------------------------------------ #
    def build_kernels(self) -> list[Kernel]:
        """Fresh kernel instances (policies hold per-run state)."""
        return [make_kernel(name, scale=self.scale * mult, seed=self.seed)
                for name, mult in zip(self.names, self.scale_mults)]

    def check(self) -> None:
        """Build the kernels, policy and warp scheduler once, or raise.

        The constructor checks descriptor shapes only, so values out of
        range (``("static", 0)``, ``warp=("swl", 0)``, ``scale=0``, a
        negative seed) surface here as :class:`JobError` instead of in a
        worker.  Callers admitting jobs from outside (the daemon,
        ``repro-sim``, :meth:`Campaign.open
        <repro.design.campaign.Campaign.open>`) call it; the constructor
        does not, as a design replay makes thousands of jobs.
        """
        try:
            build_policy(self.policy, self.build_kernels())
            build_warp_scheduler(self.warp)
        except (ValueError, TypeError) as error:
            raise JobError(str(error)) from None

    def execute(self, *, wall_timeout: float | None = None,
                sanitize: bool | None = None,
                checkpoint: "CheckpointPlan | None" = None,
                resume_from: "Snapshot | None" = None,
                saboteur=None) -> "RunResult":
        """Construct kernels + policy and run the simulation.

        ``wall_timeout`` (seconds) arms the cooperative deadline guard in
        ``GPU.run``: a run exceeding it raises a typed
        :class:`~repro.sim.gpu.SimulationTimeout` instead of hanging its
        worker.  ``sanitize`` arms the in-flight invariant sanitizer;
        ``checkpoint`` (a :class:`~repro.harness.checkpoints.CheckpointPlan`)
        snapshots the run into the plan's store, keyed by this job's
        fingerprint; ``resume_from`` continues a previous attempt from a
        stored snapshot instead of cycle zero.  None of these joins the
        fingerprint — a result is the same result however patient (or
        paranoid, or interrupted) the caller was, which is exactly the
        property the resume tests assert.
        """
        from .runner import simulate   # local import: runner imports nothing
        kernels = self.build_kernels()
        recorder = None
        if checkpoint is not None:
            from ..sim.checkpoint import CheckpointRecorder
            store = checkpoint.store()
            fingerprint = self.fingerprint()
            recorder = CheckpointRecorder(
                checkpoint.interval,
                lambda snapshot: store.put(fingerprint, snapshot))
        if resume_from is not None:
            # The snapshot carries the policy, warp scheduler and telemetry
            # hub mid-state; only fresh kernels (and the riders) go in.
            # (Snapshots are object-core state, so backend stays implicit.)
            return simulate(kernels, config=self.config,
                            wall_timeout=wall_timeout, sanitize=sanitize,
                            checkpoint=recorder, resume_from=resume_from,
                            saboteur=saboteur)
        scheduler = build_policy(self.policy, kernels)
        warp_scheduler = build_warp_scheduler(self.warp)
        telemetry = None
        if self.timeline_window is not None or self.trace:
            from ..telemetry.hub import TelemetryHub
            telemetry = TelemetryHub(window=self.timeline_window,
                                     trace=self.trace)
        return simulate(kernels, config=self.config,
                        warp_scheduler=warp_scheduler,
                        cta_scheduler=scheduler,
                        telemetry=telemetry,
                        wall_timeout=wall_timeout,
                        sanitize=sanitize,
                        checkpoint=recorder,
                        saboteur=saboteur,
                        backend=self.backend)
