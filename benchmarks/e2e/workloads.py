"""The four benchmark workloads.

Each ``run_*`` function builds its inputs from the seed, measures for
about ``seconds`` of wall time, checks every output, and returns an
:class:`~common.Outcome` holding either the end-to-end metrics
(``trace=False``) or the per-layer metrics (``trace=True``) by the names
in ``BENCHMARK.json``.  All timings are normalised seconds (see
``hostspeed.py``).

``sim-mem`` / ``sim-compute``
    The object core in-process on a cell matrix: {kernels} x {rr, lcs,
    static:2}, default ``GPUConfig``, ``gto``.  Modelled caches start
    empty in every cell.
``exp-all``
    The deduplicated ``repro-exp all`` plan at the table-golden scale,
    two pool workers and a fresh result cache: one cold build, then warm
    replays from the filled cache.
``serve``
    A ``repro-serve`` daemon with two workers under a closed loop of two
    client threads, each submitting one unique job and watching it to
    its terminal state before the next.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable

from repro.harness.cache import ResultCache
from repro.harness.engine import BatchReport
from repro.harness.experiments import (EXPERIMENT_DESIGNS, EXPERIMENTS,
                                       ExperimentContext, plan_experiments)
from repro.harness.jobs import SimJob
from repro.service.client import ServiceClient, ServiceError
from repro.sim.config import GPUConfig
from repro.sim.stats import RunResult
from repro.verify.tables import TABLE_SCALE, build_tables, verify_tables

import layers
from common import (GOLDEN_SEED, HARNESS_METRICS, OUT, REPO, SERVICE_METRICS,
                    SETUP_STARTS, SMOKE_SCALE, Outcome, child_env, combined,
                    committed, digest, layer_metrics, peak_rss_mb,
                    setup_seconds, timeboxed, traced_sample, zeros)
from hostspeed import ConcurrentProbe, start_timed, timed
from summary import percentile, tail_percentile
from tracer import LayerTracer

GOLDEN_TABLES = REPO / "goldens" / "tables"

POLICIES = (("rr",), ("lcs",), ("static", 2))
SIM_CELLS = {"sim-mem": (("streaming", "spmv"), 0.2),
             "sim-compute": (("compute", "blackscholes", "matmul"), 0.3)}
#: Timed passes over the cell matrix at the least.
MIN_PASSES = 2

EXP_WORKERS = 2
#: Share of ``seconds`` given to warm replays, and their least number.
WARM_SHARE = 0.2
MIN_WARM = 20
#: Plan jobs re-executed in-process as a reference for the pool results
#: (more in a trace run, where they also give the simulator layers).
EXP_REFERENCE = 8
EXP_TRACE_SAMPLE = 24
#: The experiments a smoke run plans instead of all of them.
SMOKE_EXPERIMENTS = ("e5",)

#: One kernel per behaviour class; an odd count puts the latency median
#: and p95 inside one kernel's latency mode for every seed.
SERVE_KERNELS = ("compute", "stencil", "kmeans", "streaming", "spmv")
SERVE_SCALE = 0.02
SERVE_WORKERS = 2
CLIENTS = 2
MIN_JOBS = 200
#: Served jobs re-executed in-process, untraced runs / trace runs.
SERVE_REFERENCE = 8
SERVE_TRACE_SAMPLE = 30
#: Jobs of the golden-seed list with committed digests.
SERVE_DIGEST_JOBS = 600


# --------------------------------------------------------------------------- #
# sim-mem / sim-compute
# --------------------------------------------------------------------------- #

SIM_SETUP = """
import json, sys
from repro.harness.jobs import SimJob
jobs = [SimJob.from_payload(p) for p in json.loads(sys.argv[1])]
"""


def sim_jobs(workload: str, seed: int, smoke: bool = False) -> list[SimJob]:
    names, scale = SIM_CELLS[workload]
    return [SimJob(names=(name,), scale=SMOKE_SCALE if smoke else scale,
                   seed=seed, warp="gto", policy=policy, config=GPUConfig())
            for name in names for policy in POLICIES]


def cell_label(job: SimJob) -> str:
    return "-".join([job.names[0], *(str(p) for p in job.policy)])


def run_sim(workload: str, seed: int, seconds: float, trace: bool,
            smoke: bool) -> Outcome:
    out = Outcome()
    jobs = sim_jobs(workload, seed, smoke)
    digests: dict[str, set[str]] = {cell_label(job): set() for job in jobs}
    if trace:
        _, results, out.tracer = traced_sample(out, jobs, cell_label)
        for job, result in zip(jobs, results):
            digests[cell_label(job)].add(digest(result))
        out.metrics.update(zeros(HARNESS_METRICS + SERVICE_METRICS))
    else:
        out.metrics["setup_s"] = setup_seconds(
            SIM_SETUP, json.dumps([job.to_payload() for job in jobs]),
            smoke=smoke)
        for name in SIM_CELLS[workload][0]:   # warm-up: lazy imports
            SimJob(names=(name,), scale=SMOKE_SCALE, seed=seed).execute()
        instructions: list[int] = []
        passes: list[float] = []   # normalised seconds

        def one_pass() -> float:
            began = time.perf_counter()
            instructions.append(0)
            passes.append(0.0)
            for job in jobs:
                result, seconds = timed(job.execute)
                passes[-1] += seconds
                instructions[-1] += result.instructions
                digests[cell_label(job)].add(digest(result))
            return time.perf_counter() - began

        timeboxed(one_pass, seconds, 1 if smoke else MIN_PASSES)
        out.metrics["sim_kips"] = statistics.median(
            n / s / 1000 for n, s in zip(instructions, passes))
        out.metrics["latency_p50_s"] = statistics.median(passes)
        out.metrics["peak_rss_mb"] = peak_rss_mb()
        out.notes.append(f"{len(passes)} timed pass(es) of {len(jobs)} cells, "
                         f"{instructions[0]} instructions each")
    _check_cells(out, workload, seed, smoke, jobs, digests)
    return out


def _check_cells(out: Outcome, workload: str, seed: int, smoke: bool,
                 jobs: list[SimJob], digests: dict[str, set[str]]) -> None:
    """Every pass must agree; at the golden seed every cell must match
    its committed digest, at any other seed one cell per kernel must
    match the vector core (bitwise-identical by contract)."""
    for label, seen in digests.items():
        out.check(len(seen) == 1, f"{label}: passes disagree")
    out.digest = combined([f"{label}:{min(seen)}"
                           for label, seen in sorted(digests.items())])
    if seed == GOLDEN_SEED and not smoke:
        expected = committed(workload)
        for label, seen in sorted(digests.items()):
            out.check(seen == {expected.get(label)},
                      f"{label}: digest differs from digests.json")
        return
    rng = random.Random(seed)
    for name in SIM_CELLS[workload][0]:
        job = rng.choice([j for j in jobs if j.names[0] == name])
        vector = digest(replace(job, backend="vector").execute())
        out.check(digests[cell_label(job)] == {vector},
                  f"{cell_label(job)}: object and vector cores disagree")


# --------------------------------------------------------------------------- #
# exp-all
# --------------------------------------------------------------------------- #

EXP_SETUP = """
import sys
from repro.harness.experiments import EXPERIMENT_DESIGNS, ExperimentContext
from repro.verify.tables import TABLE_SCALE
env = ExperimentContext(scale=TABLE_SCALE, seed=int(sys.argv[1])).design_env()
for build in EXPERIMENT_DESIGNS.values():
    build().compile(env)
"""


def plan_jobs(seed: int, exp_ids: tuple[str, ...] | None) -> list[SimJob]:
    """The deduplicated jobs of the plan, in plan order."""
    env = ExperimentContext(scale=TABLE_SCALE, seed=seed).design_env()
    jobs: dict[str, SimJob] = {}
    for exp_id in exp_ids or EXPERIMENT_DESIGNS:
        for cell in EXPERIMENT_DESIGNS[exp_id]().compile(env):
            jobs.setdefault(cell.job.fingerprint(), cell.job)
    return list(jobs.values())


@dataclass
class _Build:
    """One table build; only cold builds keep their engine reports."""

    warm: bool
    tables: dict[str, str]
    interval: tuple[float, float]   # perf_counter start and end
    seconds: float                  # normalised
    failed: int
    cache_misses: int
    reports: list[BatchReport]


def run_exp(seed: int, seconds: float, trace: bool, smoke: bool) -> Outcome:
    out = Outcome()
    exp_ids = SMOKE_EXPERIMENTS if smoke else None
    if not trace:
        out.metrics["setup_s"] = setup_seconds(EXP_SETUP, str(seed),
                                               smoke=smoke)
    OUT.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="exp-", dir=OUT))
    tracers = {"cold": LayerTracer(), "warm": LayerTracer()}
    try:
        builds = _exp_builds(seed, seconds, trace, smoke, exp_ids, workdir,
                             tracers)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        for child in multiprocessing.active_children():   # pool workers
            child.join(timeout=30)
            if child.is_alive():
                child.kill()
                child.join()
    results = _check_builds(out, seed, builds)

    plan = plan_jobs(seed, exp_ids)
    size = EXP_TRACE_SAMPLE if trace else EXP_REFERENCE
    sample = random.Random(seed).sample(plan, min(size, len(plan)))
    if trace:
        _, executed, out.tracer = traced_sample(
            out, sample, lambda job: job.fingerprint()[:12])
    else:
        executed = [job.execute() for job in sample]
    for job, result in zip(sample, executed):
        expected = results.get(job.fingerprint())
        out.check(expected is not None
                  and digest(expected) == digest(result),
                  f"plan job {job.fingerprint()[:12]}: pool result differs "
                  f"from an in-process run")

    if trace:
        _exp_trace(out, builds, tracers)
        return out
    cold, *warm = builds
    instructions = sum(result.instructions for result in results.values())
    out.metrics["sim_kips"] = instructions / cold.seconds / 1000
    out.metrics["latency_p50_s"] = statistics.median(b.seconds for b in warm)
    out.metrics["peak_rss_mb"] = peak_rss_mb()
    out.notes.append(f"1 cold build of {len(plan)} jobs, {len(warm)} warm "
                     f"replays")
    return out


def _build(ctx: ExperimentContext,
           exp_ids: tuple[str, ...] | None) -> dict[str, str]:
    if exp_ids is None:
        return build_tables(ctx)
    plan_experiments(ctx, list(exp_ids))
    return {exp_id: EXPERIMENTS[exp_id](ctx).to_csv() + "\n"
            for exp_id in exp_ids}


def _exp_builds(seed: int, seconds: float, trace: bool, smoke: bool,
                exp_ids: tuple[str, ...] | None, workdir: Path,
                tracers: dict[str, LayerTracer]) -> list[_Build]:
    """One cold build on a fresh cache, then warm replays from that
    cache.  The cold build keeps two pool workers busy and is normalised
    by a concurrent probe; it takes 12-20 s on a 2-vCPU VM, so a second
    one would not fit the time limit of all runs.  A warm replay runs in
    this thread and is :func:`~hostspeed.timed`.  In a trace run every
    build is traced, into its phase's tracer."""
    builds: list[_Build] = []

    def build(cache_dir: Path, warm: bool) -> float:
        ctx = ExperimentContext(scale=TABLE_SCALE, seed=seed,
                                jobs=EXP_WORKERS, cache=ResultCache(cache_dir))
        tracer = tracers["warm" if warm else "cold"]

        def tables() -> dict[str, str]:
            if not trace:
                return _build(ctx, exp_ids)
            with tracer.installed(layers.install_harness), \
                    tracer.root(layers.DRIVERS):
                return _build(ctx, exp_ids)

        start = time.perf_counter()
        rendered, seconds = timed(tables) if warm else (tables(), 0.0)
        end = time.perf_counter()
        builds.append(_Build(warm, rendered, (start, end), seconds,
                             len(ctx.failure_outcomes()), ctx.cache.misses,
                             [] if warm else ctx.reports))
        return end - start

    cache_dir = workdir / "cache"
    with ConcurrentProbe() as probe:
        build(cache_dir, False)
    builds[0].seconds = probe.seconds(*builds[0].interval)
    _build(ExperimentContext(scale=TABLE_SCALE, seed=seed,
                             cache=ResultCache(cache_dir)),
           exp_ids)   # warm-up replay, untimed
    timeboxed(lambda: build(cache_dir, True),
              0 if trace else WARM_SHARE * seconds,
              2 if smoke else MIN_WARM)
    return builds


def _check_builds(out: Outcome, seed: int,
                  builds: list[_Build]) -> dict[str, RunResult]:
    """One check per build: no failed job, warm replays served wholly
    from the cache, the first build's tables rendered again, and at the
    golden seed the tables of ``goldens/tables``.  Returns the cold
    builds' results by fingerprint."""
    first = builds[0].tables
    out.digest = combined([
        f"{stem}:{hashlib.sha256(text.encode()).hexdigest()}"
        for stem, text in sorted(first.items())])
    results: dict[str, RunResult] = {}
    for index, build in enumerate(builds):
        problems = [f"{build.failed} job(s) failed"] if build.failed else []
        if build.warm and build.cache_misses:
            problems.append(f"{build.cache_misses} cache miss(es)")
        if build.tables != first:
            problems.append("tables differ from build 0")
        if seed == GOLDEN_SEED:
            problems += [p for p in verify_tables(GOLDEN_TABLES, build.tables)
                         if p.split(":")[0] in build.tables]
        out.check(not problems, f"build {index}: {'; '.join(problems)}")
        for report in build.reports:
            for outcome in report.outcomes:
                if outcome.result is not None:
                    results[outcome.fingerprint] = outcome.result
    return results


def _exp_trace(out: Outcome, builds: list[_Build],
               tracers: dict[str, LayerTracer]) -> None:
    callee, caller = LayerTracer.calibrate()
    for phase, tracer in tracers.items():
        out.metrics.update(layer_metrics(tracer.report(callee, caller),
                                         layers.HARNESS_LAYERS, f".{phase}"))
        out.tracer.spans.extend(tracer.spans)
    reports = [report for build in builds for report in build.reports]
    busy = sum(o.duration for report in reports for o in report.outcomes)
    elapsed = sum(report.elapsed for report in reports)
    out.metrics["harness.engine.worker_busy_share"] = (
        busy / (EXP_WORKERS * elapsed) if elapsed else 0.0)
    out.metrics.update(zeros(SERVICE_METRICS))


# --------------------------------------------------------------------------- #
# serve
# --------------------------------------------------------------------------- #

def serve_job(seed: int, index: int) -> SimJob:
    """Job ``index`` of the seed's unbounded job list.

    Every round of ``len(SERVE_KERNELS)`` jobs holds each kernel once, in
    a seeded order, so every prefix of whole rounds has the same mix.
    Each job gets its own workload seed, so every job is unique.
    """
    rounds, slot = divmod(index, len(SERVE_KERNELS))
    order = list(SERVE_KERNELS)
    random.Random(f"{seed}:{rounds}").shuffle(order)
    job_seed = int(hashlib.sha256(f"{seed}:{index}".encode()).hexdigest()[:8],
                   16)
    return SimJob(names=(order[slot],), scale=SERVE_SCALE, seed=job_seed,
                  warp="gto", policy=("lcs",), config=GPUConfig.small())


def serve_digest(job: SimJob, cycles: int, ipc: float) -> str:
    return hashlib.sha256(f"{job.fingerprint()}:{cycles}:{ipc!r}".encode()
                          ).hexdigest()[:16]


class _Daemon:
    """One ``repro-serve`` process with fresh state and cache."""

    def __init__(self, workdir: Path) -> None:
        workdir.mkdir(parents=True)
        # Relative, to stay within the length limit of a socket path.
        self.socket = os.path.relpath(workdir / "serve.sock")
        self.log = open(workdir / "daemon.log", "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.service.daemon",
             "--state-dir", str(workdir / "state"),
             "--cache-dir", str(workdir / "cache"),
             "--workers", str(SERVE_WORKERS), "--socket", self.socket],
            env=child_env(), stdout=self.log, stderr=self.log)

    def client(self, **kwargs) -> ServiceClient:
        return ServiceClient(self.socket, timeout=60.0, **kwargs)

    def ready(self, timeout: float = 60.0) -> "_Daemon":
        """Wait until a status frame shows every worker up."""
        deadline = time.perf_counter() + timeout
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError("repro-serve exited during start-up")
            try:
                with self.client(connect_attempts=1) as client:
                    workers = client.status().get("workers_detail") or []
            except (ServiceError, OSError):
                workers = []
            if len(workers) == SERVE_WORKERS and all(
                    w["alive"] and not w["inline"] for w in workers):
                return self
            time.sleep(0.005)
        raise RuntimeError("repro-serve workers not ready in time")

    def stop(self) -> None:
        """Drain, then wait for the daemon (killed if it lingers)."""
        try:
            if self.proc.poll() is None:
                with self.client(connect_attempts=1) as client:
                    client.drain()
                self.proc.wait(timeout=30)
        except (ServiceError, OSError, subprocess.TimeoutExpired):
            pass
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
            self.proc.wait()
            self.log.close()


@dataclass
class _Served:
    index: int
    job: SimJob
    lane: int
    start: float
    rtt: float
    latency: float
    state: str
    cycles: int | None
    ipc: float | None


def _closed_loop(daemon: _Daemon, seed: int, budget: float, min_jobs: int
                 ) -> tuple[list[_Served], float, float]:
    """CLIENTS threads, one connection each, one job in flight each;
    returns the jobs in index order, the start time and the makespan."""
    lock = threading.Lock()
    issued = [0]
    began = time.perf_counter()

    def take() -> int | None:
        with lock:
            index = issued[0]
            # Stop only at whole rounds, so the kernel mix stays balanced.
            if index % len(SERVE_KERNELS) == 0 and index >= min_jobs \
                    and time.perf_counter() - began >= budget:
                return None
            issued[0] += 1
            return index

    def client_loop(lane: int) -> list[_Served]:
        served = []
        with daemon.client() as client:
            while (index := take()) is not None:
                job, job_id = serve_job(seed, index), f"e2e-{seed}-{index}"
                start = time.perf_counter()
                reply = client.submit(job_id, job.to_payload())
                rtt = time.perf_counter() - start
                frame = (reply if reply.get("state") == "shed"
                         else client.watch([job_id])[job_id])
                served.append(_Served(index, job, lane, start, rtt,
                                      time.perf_counter() - start,
                                      frame.get("state"), frame.get("cycles"),
                                      frame.get("ipc")))
        return served

    with ThreadPoolExecutor(max_workers=CLIENTS) as pool:
        futures = [pool.submit(client_loop, lane) for lane in range(CLIENTS)]
        served = [record for future in futures for record in future.result()]
    return (sorted(served, key=lambda r: r.index), began,
            time.perf_counter() - began)


def run_serve(seed: int, seconds: float, trace: bool, smoke: bool) -> Outcome:
    out = Outcome()
    OUT.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="serve-", dir=OUT))
    starts = 1 if smoke or trace else SETUP_STARTS
    setup: list[float] = []
    daemon = None
    try:
        for attempt in range(starts):
            daemon, started = start_timed(
                lambda: _Daemon(workdir / f"daemon-{attempt}").ready())
            setup.append(started)
            if attempt < starts - 1:
                daemon.stop()
        # The load keeps both workers busy: normalise by a concurrent probe.
        with ConcurrentProbe() as probe:
            served, began, makespan = _closed_loop(
                daemon, seed, seconds, 10 if smoke else MIN_JOBS)
        with daemon.client() as client:
            status = client.status()
    finally:
        if daemon is not None:
            daemon.stop()
        shutil.rmtree(workdir, ignore_errors=True)

    latencies = [r.latency for r in served]
    if trace:
        _serve_trace(out, served, status)
    else:
        out.metrics["setup_s"] = statistics.median(setup)
        instructions = sum(round(r.cycles * r.ipc) for r in served
                           if r.state == "done")
        out.metrics["sim_kips"] = instructions / probe.seconds(
            began, began + makespan) / 1000
        out.metrics["latency_p50_s"] = statistics.median(
            probe.seconds(r.start, r.start + r.latency) for r in served)
        out.metrics["peak_rss_mb"] = peak_rss_mb()
    tail = tail_percentile(len(latencies))
    out.notes.append(f"{len(served)} jobs in {makespan:.2f}s, latency p50 "
                     f"{statistics.median(latencies):.4f}s"
                     + (f", p{tail:g} {percentile(latencies, tail):.4f}s"
                        if tail and tail > 50 else "") + " (wall)")
    _check_served(out, seed, smoke, served)
    return out


def _check_served(out: Outcome, seed: int, smoke: bool,
                  served: list[_Served]) -> None:
    """Every job must finish; at the golden seed its cycles/ipc must match
    the committed digests; a seeded sample must match in-process runs."""
    expected = (committed("serve") if seed == GOLDEN_SEED and not smoke
                else [])
    for record in served:
        ok = record.state == "done"
        if ok and record.index < len(expected):
            ok = expected[record.index] == serve_digest(
                record.job, record.cycles, record.ipc)
        out.check(ok, f"job {record.index}: {record.state}, or "
                      f"cycles/ipc differ from digests.json")
    out.digest = combined([serve_digest(r.job, r.cycles, r.ipc)
                           for r in served[:MIN_JOBS]])
    sample = random.Random(seed).sample(served, min(SERVE_REFERENCE,
                                                    len(served)))
    for record in sample:
        result = record.job.execute()
        out.check((result.cycles, result.ipc) == (record.cycles, record.ipc),
                  f"job {record.index}: daemon result differs from an "
                  f"in-process run")


def _serve_trace(out: Outcome, served: list[_Served],
                 status: dict[str, Any]) -> None:
    sample = served[:SERVE_TRACE_SAMPLE]
    exec_s, _, out.tracer = traced_sample(out, [r.job for r in sample],
                                          lambda job: job.names[0])
    for record in served:
        out.tracer.spans.append({"name": f"job {record.job.names[0]}",
                                 "t": record.start, "dur_s": record.latency,
                                 "args": {"lane": record.lane,
                                          "state": record.state}})
    overhead = [r.latency - s for r, s in zip(sample, exec_s)]
    latencies = [r.latency for r in served]
    p50, p95 = statistics.median(latencies), percentile(latencies, 95)
    rtt = statistics.median(r.rtt for r in served)
    out.notes.append(f"submit round trip p50 {rtt:.5f}s, in-process exec "
                     f"p50 {statistics.median(exec_s):.4f}s, overhead p50 "
                     f"{statistics.median(overhead):.4f}s, latency p95 "
                     f"{p95:.4f}s (wall)")
    out.metrics.update({
        "service.submit_rtt_share": rtt / p50,
        "service.overhead_share": sum(overhead) / sum(r.latency
                                                      for r in sample),
        "service.tail_ratio": p95 / p50,
        "service.journal_appends_per_job": (status["journal_appends"]
                                            / len(served)),
        "service.dispatched": status["dispatched"],
        "service.respawns": status["respawns"],
        "service.shed": status["shed"],
    })
    out.metrics.update(zeros(HARNESS_METRICS))


# --------------------------------------------------------------------------- #

WORKLOADS: dict[str, Callable[[int, float, bool, bool], Outcome]] = {
    "sim-mem": lambda *a: run_sim("sim-mem", *a),
    "sim-compute": lambda *a: run_sim("sim-compute", *a),
    "exp-all": run_exp,
    "serve": run_serve,
}


def record_digests() -> dict[str, Any]:
    """Recompute every committed digest at the golden seed, in-process."""
    digests: dict[str, Any] = {"seed": GOLDEN_SEED}
    for workload in SIM_CELLS:
        digests[workload] = {cell_label(job): digest(job.execute())
                             for job in sim_jobs(workload, GOLDEN_SEED)}
    serve = []
    for index in range(SERVE_DIGEST_JOBS):
        job = serve_job(GOLDEN_SEED, index)
        result = job.execute()
        serve.append(serve_digest(job, result.cycles, result.ipc))
    digests["serve"] = serve
    return digests
