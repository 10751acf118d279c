"""What every workload shares: paths, the outcome record, fresh-process
set-up timing and the traced sample."""

from __future__ import annotations

import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable

from repro.harness.jobs import SimJob
from repro.sim.stats import RunResult
from repro.verify.golden import canonical_result, result_digest

import layers
from hostspeed import start_timed
from tracer import LayerTracer

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
SRC = REPO / "src"
OUT = HERE / "out"
DIGESTS = HERE / "digests.json"

#: The seed the repository's goldens are pinned to (``DEFAULT_SEED`` in
#: ``repro.workloads.patterns``); committed digests exist only for it.
GOLDEN_SEED = 20140219

#: Fresh starts per set-up measurement (the median is reported).
SETUP_STARTS = 7

#: Scale of warm-up runs and of every cell in a smoke run.
SMOKE_SCALE = 0.02


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    metrics: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    #: sha256 over the checked outputs, comparable between commits
    digest: str = ""
    notes: list[str] = field(default_factory=list)
    tracer: LayerTracer | None = None

    def check(self, ok: bool, problem: str) -> None:
        """Count one checked operation."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)


# --------------------------------------------------------------------------- #
# helpers
# --------------------------------------------------------------------------- #

def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return env


def setup_seconds(code: str, *args: str, smoke: bool) -> float:
    """Median normalised seconds of :data:`SETUP_STARTS` fresh
    interpreters running ``code``."""
    def fresh_start() -> None:
        subprocess.run([sys.executable, "-c", code, *args], cwd=REPO,
                       env=child_env(), check=True,
                       stdout=subprocess.DEVNULL, timeout=120)
    return statistics.median(start_timed(fresh_start)[1]
                             for _ in range(1 if smoke else SETUP_STARTS))


def peak_rss_mb() -> float:
    """Largest resident set this benchmark process has had."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def digest(result: RunResult) -> str:
    return result_digest(canonical_result(result.to_dict()))


def combined(parts: list[str]) -> str:
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


def committed(workload: str) -> Any:
    with open(DIGESTS, encoding="utf-8") as handle:
        return json.load(handle)[workload]


def timeboxed(unit: Callable[[], float], budget: float,
              minimum: int) -> None:
    """Run ``unit`` (returning its wall seconds) at least ``minimum``
    times, then while another run of average length still fits in
    ``budget``."""
    durations: list[float] = []
    while len(durations) < minimum or \
            sum(durations) * (1 + 1 / len(durations)) <= budget:
        durations.append(unit())


# --------------------------------------------------------------------------- #
# per-layer metrics
# --------------------------------------------------------------------------- #

#: Per-layer metrics a workload cannot exercise report zero.
HARNESS_METRICS = tuple(
    f"{layer}.{phase}.{kind}" for layer in layers.HARNESS_LAYERS
    for phase in ("cold", "warm") for kind in ("self_share", "calls")
) + ("harness.engine.worker_busy_share",)
SERVICE_METRICS = ("service.submit_rtt_share", "service.overhead_share",
                   "service.tail_ratio", "service.journal_appends_per_job",
                   "service.dispatched", "service.respawns", "service.shed")


def zeros(names: tuple[str, ...]) -> dict[str, float]:
    return dict.fromkeys(names, 0.0)


def layer_metrics(report: dict, names: tuple[str, ...],
                  phase: str = "") -> dict[str, float]:
    out = {}
    for layer in names:
        out[f"{layer}{phase}.self_share"] = report[layer]["self_share"]
        out[f"{layer}{phase}.calls"] = report[layer]["calls"]
    return out


def traced_sample(out: Outcome, jobs: list[SimJob],
                  label: Callable[[SimJob], str]
                  ) -> tuple[list[float], list[RunResult], LayerTracer]:
    """Run ``jobs`` untraced (timing each), then again traced, and record
    the simulator's per-layer metrics and the tracing cost.

    A wrapped call costs more inside the simulator than in the
    empty-callee calibration, so the cost subtracted per call is the
    traced run's extra time over the untraced run per wrapped call, split
    between callee and caller as the calibration splits it.
    """
    replace(jobs[0], scale=SMOKE_SCALE).execute()   # warm-up, untimed
    exec_s, results = [], []
    for job in jobs:
        start = time.perf_counter()
        results.append(job.execute())
        exec_s.append(time.perf_counter() - start)
    tracer = LayerTracer()
    start = time.perf_counter()
    with tracer.installed(layers.install_sim):
        traced_results = []
        for job in jobs:
            with tracer.span("cell", label=label(job)):
                traced_results.append(job.execute())
    traced = time.perf_counter() - start
    for job, plain, seen in zip(jobs, results, traced_results):
        out.check(digest(plain) == digest(seen),
                  f"{label(job)}: tracing changed the result")

    callee, caller = LayerTracer.calibrate()
    wrapped = max(sum(tracer.calls.values()), 1)
    per_call = (traced - sum(exec_s)) * 1e9 / wrapped
    if per_call > 0:
        scale = per_call / (callee + caller)
        callee, caller = callee * scale, caller * scale
    out.metrics.update(layer_metrics(tracer.report(callee, caller),
                                     layers.SIM_LAYERS))
    out.metrics.update(layers.sim_counters(
        results, [job.config for job in jobs],
        tracer.tallies[layers.EVENTS_SCHEDULED]))
    out.metrics["trace.wrapper_ns"] = callee + caller
    out.metrics["trace.overhead_x"] = traced / sum(exec_s)
    return exec_s, results, tracer
