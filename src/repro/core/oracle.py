"""Exhaustive static CTA-limit search — the paper's "optimal" comparator.

LCS is evaluated against the best *static* per-core CTA limit, found by
simulating the kernel once per candidate limit.  This is an offline oracle
(a real system cannot afford it), which is exactly why the paper's online
LCS decision matters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

from ..sim.config import GPUConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.stats import RunResult


def best_static_limit(results: Mapping[int, "RunResult"]) -> int:
    """The static limit whose run took the fewest cycles (the smaller
    limit on a tie)."""
    return min(results, key=lambda limit: (results[limit].cycles, limit))


@dataclass(frozen=True)
class OracleResult:
    """Outcome of the exhaustive search."""

    kernel_name: str
    occupancy: int
    best_limit: int
    results: dict[int, "RunResult"]

    @property
    def best(self) -> "RunResult":
        return self.results[self.best_limit]

    @property
    def baseline(self) -> "RunResult":
        """The maximum-occupancy run (the conventional baseline)."""
        return self.results[self.occupancy]

    @property
    def best_speedup(self) -> float:
        """Best static limit's speedup over maximum occupancy."""
        return self.baseline.cycles / self.best.cycles

    def ipc_by_limit(self) -> dict[int, float]:
        return {limit: result.ipc for limit, result in sorted(self.results.items())}


def sweep_static_limits(kernel, *, config: GPUConfig | None = None,
                        warp_scheduler: str = "gto",
                        limits: Sequence[int] | None = None) -> OracleResult:
    """Simulate a live :class:`~repro.sim.kernel.Kernel` once per static
    CTA limit, serially in-process, and rank the results.

    ``limits`` defaults to every feasible value ``1..occupancy``.  Suite
    kernels go through the batch engine instead:
    :meth:`~repro.harness.experiments.ExperimentContext.oracle_best` or
    :func:`~repro.harness.sweeps.occupancy_position`.
    """
    # Imported lazily: the harness imports this package.
    from ..harness.runner import simulate
    from .cta_schedulers import StaticLimitCTAScheduler

    config = config if config is not None else GPUConfig()
    occupancy = kernel.max_ctas_per_sm(config)
    if limits is None:
        limits = range(1, occupancy + 1)
    candidate_limits = sorted({min(limit, occupancy) for limit in limits})
    if not candidate_limits or candidate_limits[0] < 1:
        raise ValueError("limits must contain values >= 1")
    if occupancy not in candidate_limits:
        candidate_limits.append(occupancy)

    results: dict[int, "RunResult"] = {}
    for limit in candidate_limits:
        scheduler = StaticLimitCTAScheduler(kernel, limit_per_sm=limit)
        results[limit] = simulate(kernel, config=config,
                                  warp_scheduler=warp_scheduler,
                                  cta_scheduler=scheduler)
    return OracleResult(kernel_name=kernel.name, occupancy=occupancy,
                        best_limit=best_static_limit(results),
                        results=results)
