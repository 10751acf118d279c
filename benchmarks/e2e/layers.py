"""Which entry points belong to which layer, and the modelled counters.

The layer names follow the package layout under ``src/repro``.  Each
``install_*`` function patches one family of layers into a
:class:`~tracer.LayerTracer`; the tracer restores them on exit from
``tracer.installed(...)``.
"""

from __future__ import annotations

from typing import Iterable

import repro.harness.engine as engine
import repro.harness.experiments as experiments
import repro.verify.tables as tables
from repro.core.cta_schedulers import CTAScheduler
from repro.core.warp_schedulers import WarpScheduler
from repro.design.design import Design
from repro.harness.cache import ResultCache
from repro.harness.jobs import SimJob
from repro.mem.cache import Cache
from repro.mem.dram import DRAMModel
from repro.mem.subsystem import MemorySubsystem
from repro.sim.events import EventQueue
from repro.sim.gpu import GPU
from repro.sim.kernel import Kernel
from repro.sim.sm import SM
from repro.sim.stats import RunResult

from tracer import LayerTracer

GPU_LOOP = "sim.gpu"
EVENTS = "sim.events"
CTA_SCHEDULERS = "core.cta_schedulers"
SM_CORE = "sim.sm"
WARP_SCHEDULERS = "core.warp_schedulers"
L1 = "mem.cache.l1"
SUBSYSTEM = "mem.subsystem"
DRAM = "mem.dram"
PROGRAMS = "workloads.programs"

#: Simulator layers, in the order they are reported.
SIM_LAYERS = (GPU_LOOP, EVENTS, CTA_SCHEDULERS, SM_CORE, WARP_SCHEDULERS,
              L1, SUBSYSTEM, DRAM, PROGRAMS)

DESIGN = "design.design"
JOBS = "harness.jobs"
CACHE_GET = "harness.cache.get"
CACHE_PUT = "harness.cache.put"
ENGINE = "harness.engine"
DRIVERS = "harness.experiments"

#: Harness layers of a ``repro-exp all`` build, in reporting order.
HARNESS_LAYERS = (DESIGN, JOBS, CACHE_GET, CACHE_PUT, ENGINE, DRIVERS)

#: Tally name of ``EventQueue.schedule``: every scheduled event fires
#: before a run ends, so this counts events fired.
EVENTS_SCHEDULED = "events.scheduled"

#: Modelled-component counters, all exact functions of the RunResults.
SIM_COUNTERS = ("mem.cache.l1.hit_rate", "mem.cache.l1.mshr_stalls",
                "mem.subsystem.l2_hit_rate", "mem.subsystem.l2_mshr_stalls",
                "mem.dram.row_hit_rate", "mem.dram.bus_busy_share",
                "sim.sm.ipc", "sim.events.fired_per_kinstr")


def _subclasses(cls: type) -> list[type]:
    found, todo = [], [cls]
    while todo:
        current = todo.pop()
        found.append(current)
        todo.extend(current.__subclasses__())
    return found


def _patch_own(tracer: LayerTracer, root: type, names: Iterable[str],
               layer: str) -> None:
    """Patch every method in ``names`` that ``root`` or a subclass defines
    itself (calls through ``super()`` stay inside the layer)."""
    names = tuple(names)
    for cls in _subclasses(root):
        for name in names:
            if name in cls.__dict__:
                tracer.patch(cls, name, layer)


def _cache_layer(cache: Cache) -> str:
    # L1 instances are named "L1[sm]", the L2 banks "L2[bank]".
    return L1 if cache.name.startswith("L1") else SUBSYSTEM


def install_sim(tracer: LayerTracer) -> None:
    """Simulator layers; ``GPU.run`` is the root span."""
    tracer.register(*SIM_LAYERS)
    tracer.patch_root(GPU, "run", GPU_LOOP)
    tracer.patch(EventQueue, "run_due", EVENTS)
    tracer.patch(EventQueue, "schedule", EVENTS, tally=EVENTS_SCHEDULED)
    _patch_own(tracer, CTAScheduler, ("fill", "on_cta_complete"),
               CTA_SCHEDULERS)
    for name in ("tick", "mem_response", "_wake_alu", "_wake_mem_event"):
        tracer.patch(SM, name, SM_CORE)
    _patch_own(tracer, WarpScheduler, ("pick", "on_ready", "on_issue"),
               WARP_SCHEDULERS)
    for name in ("lookup_load", "write_probe", "fill", "contains",
                 "pending"):
        tracer.patch(Cache, name, _cache_layer)
    for name in ("load", "store", "_on_l2_load", "_on_l2_store",
                 "_on_dram_fill", "_deliver"):
        tracer.patch(MemorySubsystem, name, SUBSYSTEM)
    for name in ("read", "write", "_service"):
        tracer.patch(DRAMModel, name, DRAM)
    tracer.patch(Kernel, "build_warp_program", PROGRAMS)


def install_harness(tracer: LayerTracer) -> None:
    """Harness layers of a table build, measured in the parent process.

    The benchmark opens the root span (layer ``harness.experiments``)
    around each build; the experiment drivers belong to the same layer.
    ``run_batch`` is patched where it is looked up, and batches and cache
    I/O calls are kept as spans.
    """
    tracer.register(*HARNESS_LAYERS)
    tracer.patch(Design, "compile", DESIGN)
    tracer.patch(SimJob, "fingerprint", JOBS)
    tracer.patch(ResultCache, "get", CACHE_GET, record=True)
    tracer.patch(ResultCache, "put", CACHE_PUT, record=True)
    tracer.patch(engine, "run_batch", ENGINE, record=True)
    tracer.patch(experiments, "run_batch", ENGINE, record=True)
    for exp_id in experiments.EXPERIMENTS:
        tracer.patch(experiments.EXPERIMENTS, exp_id, DRIVERS)
    for name in ("plan_experiments", "e12_config_table",
                 "e12_benchmark_table"):
        tracer.patch(tables, name, DRIVERS)


def sim_counters(results: list[RunResult], configs: list,
                 events_fired: int) -> dict[str, float]:
    """The modelled counters over a set of runs (each ``configs[i]`` is
    the ``GPUConfig`` that ``results[i]`` ran on)."""
    def rate(hits: int, total: int) -> float:
        return hits / total if total else 0.0

    l1_accesses = sum(r.l1.accesses for r in results)
    l1_misses = sum(r.l1.misses + r.l1.merges for r in results)
    l2_accesses = sum(r.l2.accesses for r in results)
    l2_misses = sum(r.l2.misses + r.l2.merges for r in results)
    row_hits = sum(r.dram.row_hits for r in results)
    rows = row_hits + sum(r.dram.row_misses for r in results)
    bus_cycles = sum(r.cycles * c.dram_channels
                     for r, c in zip(results, configs))
    instructions = sum(r.instructions for r in results)
    return {
        "mem.cache.l1.hit_rate": rate(l1_accesses - l1_misses, l1_accesses),
        "mem.cache.l1.mshr_stalls": sum(r.l1.mshr_stalls for r in results),
        "mem.subsystem.l2_hit_rate": rate(l2_accesses - l2_misses,
                                          l2_accesses),
        "mem.subsystem.l2_mshr_stalls": sum(r.l2.mshr_stalls
                                            for r in results),
        "mem.dram.row_hit_rate": rate(row_hits, rows),
        "mem.dram.bus_busy_share": rate(sum(r.dram.bus_busy_cycles
                                            for r in results), bus_cycles),
        "sim.sm.ipc": rate(instructions, sum(r.cycles for r in results)),
        "sim.events.fired_per_kinstr": rate(events_fired * 1000,
                                            instructions),
    }
