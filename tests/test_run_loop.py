"""The shared run loop's exits and riders, on both simulator cores.

``GPU._loop`` runs the object core and the vector core alike; these
tests pin its exits (completion, the ``max_cycles`` budget, the deadlock
detector) and show that neither ``cycle_accurate`` ticking nor the
loop-top riders (telemetry windows, the sanitizer) move a result.
"""

from __future__ import annotations

import pytest

from repro.core.cta_schedulers import RoundRobinCTAScheduler
from repro.harness.jobs import build_policy
from repro.harness.runner import collect_result
from repro.sim.config import GPUConfig
from repro.sim.gpu import GPU, SimulationDeadlock, SimulationTimeout
from repro.sim.invariants import InvariantSanitizer
from repro.sim.vector import VectorGPU
from repro.telemetry.hub import TelemetryHub
from repro.workloads.suite import make_kernel

CORES = [GPU, VectorGPU]
SMALL = GPUConfig.small()


class _NeverDispatch(RoundRobinCTAScheduler):
    """A policy whose ``fill`` never dispatches: every limit is zero."""

    __slots__ = ()

    def limit(self, sm, run) -> int:
        return 0


def _run(core, *, config=SMALL, policy=("lcs",), window=None,
         **run_kwargs):
    kernels = [make_kernel("kmeans", scale=0.05)]
    hub = (TelemetryHub(window=window, trace=True)
           if window is not None else None)
    gpu = core(config=config, warp_scheduler="gto", telemetry=hub)
    gpu.run(build_policy(policy, kernels), **run_kwargs)
    return collect_result(gpu, kernels)


@pytest.mark.parametrize("core", CORES, ids=lambda core: core.__name__)
def test_max_cycles_budget(core):
    with pytest.raises(SimulationTimeout) as excinfo:
        _run(core, config=GPUConfig.small(max_cycles=500))
    assert excinfo.value.kind == "max-cycles"
    assert excinfo.value.cycle == 501
    assert excinfo.value.max_cycles == 500


@pytest.mark.parametrize("core", CORES, ids=lambda core: core.__name__)
def test_deadlock_detected(core):
    kernel = make_kernel("kmeans", scale=0.05)
    gpu = core(config=SMALL, warp_scheduler="gto")
    with pytest.raises(SimulationDeadlock, match="no progress possible"):
        gpu.run(_NeverDispatch(kernel))
    assert gpu.cycle == 0


@pytest.mark.parametrize("core", CORES, ids=lambda core: core.__name__)
def test_cycle_accurate_equals_fast_forward(core):
    fast = _run(core, window=200)
    ticked = _run(core, window=200, cycle_accurate=True)
    assert ticked.meta["timeline"] == fast.meta["timeline"]
    assert ticked.to_dict() == fast.to_dict()


@pytest.mark.parametrize("core", CORES, ids=lambda core: core.__name__)
def test_sanitized_windowed_run_is_bitwise_identical(core):
    plain = _run(core, window=200)
    sanitizer = InvariantSanitizer(interval=300)
    sanitized = _run(core, window=200, sanitizer=sanitizer)
    assert sanitizer.checks_run > 0
    assert sanitized.to_dict() == plain.to_dict()
