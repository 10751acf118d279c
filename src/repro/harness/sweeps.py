"""Generic configuration/parameter sweeps.

A small utility for the sensitivity studies: run the same (kernel, policy)
under a sequence of hardware-configuration variants and tabulate a metric.
Used by the E20 ablation (L1-MSHR sensitivity) and available to users
exploring their own design spaces::

    from repro.harness.sweeps import config_sweep
    table = config_sweep("kmeans", "l1_mshr_entries", [8, 16, 32],
                         policies={"base": ("rr",), "lcs": ("lcs",)})

The sweep is declared as a two-factor :class:`~repro.design.Design`
(swept value x policy, with a derived hardware factor) and compiled by
the design layer — the same lowering path as the E-drivers and design
files — so invalid descriptors fail up front with the engine's uniform
:class:`~repro.harness.jobs.JobError` before any simulation runs, and the
whole sweep fans out across ``jobs`` worker processes and memoises into
``cache``.
"""

from __future__ import annotations

from typing import Mapping, Sequence

# Submodule imports (not the package) keep this importable from either
# direction of the repro.design <-> repro.harness package boundary.
from ..core.oracle import OracleResult, best_static_limit
from ..design.design import Design, Factor
from ..design.env import DesignEnv
from ..sim.config import GPUConfig
from ..workloads.patterns import DEFAULT_SEED
from .cache import ResultCache
from .engine import run_jobs
from .reporting import Table


def sweep_design(benchmark: str, field: str, values: Sequence, *,
                 policies: Mapping[str, tuple],
                 warp_scheduler: str = "gto") -> Design:
    """The declarative form of :func:`config_sweep`'s cell matrix.

    ``value`` is the outer factor and ``policy`` the inner one, so the
    compiled order matches the table layout (one row per value, one
    column per policy).
    """
    return Design(f"sweep-{benchmark}-{field}", factors=[
        Factor.crossed("value", tuple(values)),
        Factor.crossed("bench", (benchmark,)),
        Factor.crossed("warp", (warp_scheduler,)),
        Factor.crossed("policy", tuple(policies.values())),
        Factor.derived("config",
                       lambda cell, env: {field: cell["value"]}),
    ])


def config_sweep(benchmark: str, field: str, values: Sequence,
                 *, policies: Mapping[str, tuple] | None = None,
                 base_config: GPUConfig | None = None,
                 scale: float = 0.4, seed: int = DEFAULT_SEED,
                 warp_scheduler: str = "gto",
                 jobs: int = 1, cache: ResultCache | None = None) -> Table:
    """Sweep one ``GPUConfig`` field; report IPC per (value, policy).

    ``policies`` maps a column label to a policy descriptor (``("rr",)``,
    ``("static", n)``, ``("lcs",)``, or any other descriptor the job layer
    knows); default is the baseline only.  Returns a table with one row
    per swept value.
    """
    if not values:
        raise ValueError("values must be non-empty")
    if policies is None:
        policies = {"ipc": ("rr",)}
    base_config = base_config if base_config is not None else GPUConfig()
    if not hasattr(base_config, field):
        raise ValueError(f"GPUConfig has no field {field!r}")

    # Compile the design up front: descriptor validation (benchmark name,
    # warp scheduler, policy shape) happens here, before anything runs.
    design = sweep_design(benchmark, field, values, policies=policies,
                          warp_scheduler=warp_scheduler)
    env = DesignEnv(scale=scale, seed=seed, config=base_config)
    compiled = [cc.job for cc in design.compile(env)]
    # The design drops repeated cells; a repeated value or policy reads
    # its cell's one result (the environment hands out one job per cell).
    results = dict(zip(compiled, run_jobs(compiled, workers=jobs,
                                          cache=cache)))

    columns = [field] + [f"{label}_ipc" for label in policies]
    if len(policies) > 1:
        columns.append("best_policy")
    table = Table(f"{benchmark}: sweep of {field}", columns)
    for value in values:
        config = base_config.with_overrides(**{field: value})
        cells: list = [value]
        best_label, best_ipc = None, -1.0
        for label, policy in policies.items():
            result = results[env.job(benchmark, warp=warp_scheduler,
                                     policy=policy, config=config)]
            cells.append(result.ipc)
            if result.ipc > best_ipc:
                best_label, best_ipc = label, result.ipc
        if len(policies) > 1:
            cells.append(best_label)
        table.add_row(*cells)
    return table


def occupancy_position(benchmark: str, *, config: GPUConfig | None = None,
                       scale: float = 0.4, seed: int = DEFAULT_SEED,
                       jobs: int = 1,
                       cache: ResultCache | None = None) -> dict:
    """Convenience: where does this kernel's best static limit sit?

    Runs one ``("static", n)`` job per limit ``1..occupancy`` through the
    batch engine and returns ``{"occupancy": o, "best": n,
    "best_over_max": s}`` — the raw material of the motivation figure for
    one kernel.
    """
    env = DesignEnv(scale=scale, seed=seed,
                    config=config if config is not None else GPUConfig())
    occupancy = env.occupancy(benchmark)
    limits = range(1, occupancy + 1)
    results = dict(zip(limits, run_jobs(
        [env.job(benchmark, policy=("static", limit)) for limit in limits],
        workers=jobs, cache=cache)))
    oracle = OracleResult(benchmark, occupancy, best_static_limit(results),
                          results)
    return {
        "occupancy": oracle.occupancy,
        "best": oracle.best_limit,
        "best_over_max": oracle.best_speedup,
    }
