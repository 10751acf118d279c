"""The compile environment: what a design needs to become jobs.

A :class:`DesignEnv` carries everything about *how* a campaign runs that is
not part of the experimental design itself — grid scale, workload seed, the
baseline hardware configuration and telemetry riders.  Separating it from
:class:`~repro.design.design.Design` is what makes designs reusable: the
same factorial declaration compiles to the quick smoke matrix at
``scale=0.02`` and to the full evaluation at ``scale=1.0`` without being
rewritten.

:meth:`DesignEnv.job` is the single job-construction path shared by the
design layer and :class:`~repro.harness.experiments.ExperimentContext`,
which owns one environment and builds every job through it.  Both produce
byte-identical :class:`~repro.harness.jobs.SimJob` descriptions, which is
what keeps design-compiled campaigns and hand-driven experiments in the
same result-cache universe.  The environment hands out one job object per
distinct cell, on its own hardware or any other (``config=``), so a cell
that a plan and a driver's ``ctx.run`` both name is built and
fingerprinted once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..harness.jobs import SimJob
from ..sim.config import GPUConfig
from ..workloads.patterns import DEFAULT_SEED
from ..workloads.suite import make_kernel


@dataclass
class DesignEnv:
    """Scale/seed/hardware/rider bindings for one design compilation."""

    scale: float = 0.4
    seed: int = DEFAULT_SEED
    config: GPUConfig = field(default_factory=GPUConfig)
    timeline_window: int | None = None
    trace: bool = False
    # Memos of this environment's lifetime; neither takes part in ==.
    _occupancy: dict[tuple, int] = field(default_factory=dict, repr=False,
                                         compare=False)
    _jobs: dict[tuple, SimJob] = field(default_factory=dict, repr=False,
                                       compare=False)

    def occupancy(self, name: str,
                  config: GPUConfig | None = None) -> int:
        """Resident-CTA limit of one suite kernel (memoised; used by
        nested factors such as static-limit sweeps)."""
        config = config if config is not None else self.config
        key = (name, config)
        cached = self._occupancy.get(key)
        if cached is None:
            kernel = make_kernel(name, scale=self.scale, seed=self.seed)
            cached = kernel.max_ctas_per_sm(config)
            self._occupancy[key] = cached
        return cached

    def job(self, names: str | Sequence[str], *,
            warp: str | tuple = "gto", policy: tuple = ("rr",),
            scale_mults: Sequence[float] | None = None,
            config: GPUConfig | None = None) -> SimJob:
        """One job under this environment (``config`` overrides the
        baseline hardware for per-cell hardware factors).

        Memoised: equal arguments get the same job object, so its stored
        fingerprint is computed once.  The policy's element types join
        the key, as ``("lcs", "tail", 1)`` and ``("lcs", "tail", 1.0)`` are
        equal but fingerprint differently.
        """
        names = (names,) if isinstance(names, str) else tuple(names)
        warp = tuple(warp) if isinstance(warp, list) else warp
        policy = tuple(policy)
        config = config if config is not None else self.config
        if scale_mults is not None:
            scale_mults = tuple(scale_mults)
        key = (names, warp, policy, tuple(map(type, policy)), scale_mults,
               config)
        job = self._jobs.get(key)
        if job is None:
            job = SimJob(names=names, scale=self.scale, seed=self.seed,
                         scale_mults=scale_mults, warp=warp, policy=policy,
                         config=config, timeline_window=self.timeline_window,
                         trace=self.trace)
            self._jobs[key] = job
        return job

    def jobs(self) -> list[SimJob]:
        """Every job this environment has handed out, in first-request
        order."""
        return list(self._jobs.values())

    def to_payload(self) -> dict:
        """JSON-compatible rendering (campaign manifests)."""
        from dataclasses import fields as dc_fields
        return {
            "scale": self.scale,
            "seed": self.seed,
            "config": {f.name: getattr(self.config, f.name)
                       for f in dc_fields(self.config)},
            "timeline_window": self.timeline_window,
            "trace": self.trace,
        }

    @classmethod
    def merged(cls, pinned: dict, **flags) -> "DesignEnv":
        """The environment a design file compiles under: the CLI
        ``flags`` that were given (None means not given), then every key
        the file pinned (:func:`~repro.design.files.load_design`) on top
        — anything the file pins wins over the flags."""
        kwargs = {key: value for key, value in flags.items()
                  if value is not None}
        kwargs.update(pinned)
        return cls(**kwargs)

    @classmethod
    def from_payload(cls, data: dict) -> "DesignEnv":
        """The environment a campaign manifest recorded; a key this
        version no longer reads (an older manifest's) is ignored."""
        return cls(scale=data["scale"], seed=data["seed"],
                   config=GPUConfig(**data["config"]),
                   timeline_window=data.get("timeline_window"),
                   trace=bool(data.get("trace", False)))
