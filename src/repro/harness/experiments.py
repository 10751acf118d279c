"""Experiment drivers — one per reconstructed figure/table (E1..E22).

Every driver is two declarative halves:

* a **design** (``design_eNN``): the experiment's factorial space —
  crossed/nested/derived :class:`~repro.design.Factor`\\ s compiled to
  :class:`SimJob`\\ s by the :mod:`repro.design` layer.  Designs are data:
  the CLI counts their cells for ``--list``, :func:`plan_experiments`
  compiles them and merges them across experiments into one deduplicated
  engine batch, and campaigns (``repro-exp --design``) run file-borne
  designs through the identical machinery;
* a **table assembly** (``eNN_*``): reads the planned results back through
  :meth:`ExperimentContext.run` and lays out the rows the paper would
  plot.  Byte-identical to the pre-design-layer tables (asserted by
  ``tests/test_table_goldens.py``).

Each ``eNN_*`` function takes only an :class:`ExperimentContext` and
returns a :class:`~repro.harness.reporting.Table`; it reads the module
constants its design reads (benchmark sets, swept levels and the shared
policy descriptors ``LCS``, ``BCS``, ``LCS_BCS`` and ``MIXED``), so the
design is the one statement of what the experiment simulates.  The context memoises simulation
runs by job fingerprint, so experiments that share configurations (e.g.
E3's baseline and E4's oracle sweep) pay for each simulation once per
invocation, on the context's own hardware or on any other.

Scale convention: ``ExperimentContext(scale=...)`` scales every kernel's
grid; 1.0 is the full evaluation size (~4 waves of CTAs per kernel),
0.25–0.5 gives the same qualitative shapes in a fraction of the time (used
by the test suite and the quick benchmark mode).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

from ..core.oracle import best_static_limit
from ..design import Design, DesignEnv, Factor
from ..sim.config import GPUConfig
from ..sim.kernel import Kernel
from ..sim.stats import RunResult
from ..workloads.patterns import DEFAULT_SEED
from ..workloads.programs import memory_intensity
from ..workloads.suite import (CKE_PAIRS, LCS_SET, LOCALITY_SET,
                               MOTIVATION_SET, SUITE, make_kernel)
from .cache import ResultCache
from .checkpoints import CheckpointPlan
from .engine import (DEFAULT_RETRIES, BatchReport, JobExecutionError,
                     JobOutcome, rebased_events, run_batch)
from .faults import FaultPlan
from .jobs import SimJob
from .metrics import cke_metrics
from .reporting import Table, geomean, speedup

#: Default LCS decision rule and parameter used across experiments
#: (calibrated by the E9 sensitivity sweep; see EXPERIMENTS.md).
LCS_RULE = "tail"
LCS_PARAM = 0.50

#: Default BCS block size (the paper's consecutive pair).
BCS_BLOCK = 2

#: The policy descriptors the designs and drivers share: the paper's two
#: mechanisms at their defaults, composed, and LCS-guided mixed CKE.
LCS = ("lcs", LCS_RULE, LCS_PARAM)
BCS = ("bcs", BCS_BLOCK, None)
LCS_BCS = ("lcs+bcs", BCS_BLOCK, LCS_RULE, LCS_PARAM)
MIXED = ("mixed", LCS_RULE, LCS_PARAM)


@dataclass
class ExperimentContext:
    """Shared settings plus a memo of completed simulation runs.

    ``jobs`` and ``cache`` plug the context into the batch engine
    (:mod:`repro.harness.engine`): :func:`plan_experiments` compiles the
    requested experiments' designs under this context and runs them as
    one engine batch through :meth:`prefetch` — the cache misses across
    ``jobs`` worker processes when ``jobs > 1`` — and the drivers then
    assemble their tables from :meth:`run`, which reads the memo.  A run
    nobody planned goes through the same batch path on demand.  Results
    are bit-identical to serial, uncached execution by construction.

    Results and failures are memoised by job fingerprint, whatever
    hardware the job names (``config=``), so a cell several experiments
    declare simulates once per invocation and a job that failed is not
    dispatched again.
    """

    scale: float = 0.4
    seed: int = DEFAULT_SEED
    config: GPUConfig = field(default_factory=GPUConfig)
    jobs: int = 1
    cache: ResultCache | None = None
    # Telemetry riders applied to every job this context builds: a windowed
    # timeline (cycles per window) and/or a structured event trace.  They
    # change job fingerprints (telemetry-bearing results cache separately)
    # but never the simulated statistics.
    timeline_window: int | None = None
    trace: bool = False
    # Resilience knobs forwarded to every engine batch (see
    # docs/ROBUSTNESS.md): transient-failure retries, the per-job
    # wall-clock deadline, whether the first failure stops the batch, and
    # an optional deterministic fault-injection plan.
    retries: int = DEFAULT_RETRIES
    timeout: float | None = None
    fail_fast: bool = False
    faults: FaultPlan | None = field(default=None, repr=False)
    # Robustness riders: the in-flight invariant sanitizer and the
    # checkpoint/resume plan.  Neither changes results or fingerprints.
    sanitize: bool | None = None
    checkpoints: CheckpointPlan | None = None
    # Engine reports accumulate here, one per batch, so a CLI failure
    # summary sees everything.
    reports: list[BatchReport] = field(default_factory=list, repr=False)
    # Fingerprint -> result of every job that produced one, and
    # fingerprint -> outcome of every job that did not.
    _results: dict[str, RunResult] = field(default_factory=dict, repr=False)
    _failed: dict[str, JobOutcome] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        # This context's compile environment, derived from the fields
        # above (so not a field itself): every job and occupancy the
        # context hands out, on any hardware, comes from it, memoised for
        # the context's lifetime.
        self._env = DesignEnv(scale=self.scale, seed=self.seed,
                              config=self.config,
                              timeline_window=self.timeline_window,
                              trace=self.trace)

    # ------------------------------------------------------------------ #
    def kernel(self, name: str) -> Kernel:
        """A fresh kernel instance (policies hold per-run state)."""
        return make_kernel(name, scale=self.scale, seed=self.seed)

    def occupancy(self, name: str, config: GPUConfig | None = None) -> int:
        """Resident-CTA limit of one suite kernel on this context's
        hardware, or on ``config`` (memoised by the context's
        environment)."""
        return self._env.occupancy(name, config)

    def job(self, names: str | Sequence[str], *,
            warp: str | tuple = "gto",
            policy: tuple = ("rr",),
            scale_mults: Sequence[float] | None = None,
            config: GPUConfig | None = None) -> SimJob:
        """The declarative job for one :meth:`run` parameter combination.

        Delegates to this context's :class:`~repro.design.DesignEnv` — the
        single job construction path shared with the design compiler — so
        a design cell and a hand-built run can never drift apart, and both
        get the same job object.  ``config`` names other hardware; every
        other setting (scale, seed, telemetry riders) is the context's.
        """
        return self._env.job(names, warp=warp, policy=policy,
                             scale_mults=scale_mults, config=config)

    def design_env(self) -> DesignEnv:
        """This context's compile environment (one per context, so the
        designs it compiles share its job and occupancy memos)."""
        return self._env

    def prefetch(self, jobs: Iterable[SimJob]) -> int:
        """Execute the jobs not yet memoised as one batch (parallel +
        cached); returns the number of distinct jobs given.

        Jobs with equal fingerprints run once, and a job this context
        already ran or saw fail is not dispatched again.  Failures are
        isolated per job: successful results are memoised (and cached)
        regardless of what happened to their batch-mates, failed jobs
        are remembered so :meth:`run` raises a
        :class:`~repro.harness.engine.JobExecutionError` for exactly the
        affected jobs.  With ``fail_fast`` set the first failure raises
        here instead.
        """
        wanted: dict[str, SimJob] = {}
        for job in jobs:
            wanted.setdefault(job.fingerprint(), job)
        pending = {fingerprint: job for fingerprint, job in wanted.items()
                   if fingerprint not in self._results
                   and fingerprint not in self._failed}
        if not pending:
            return len(wanted)
        report = run_batch(list(pending.values()), workers=self.jobs,
                           cache=self.cache, retries=self.retries,
                           timeout=self.timeout, fail_fast=self.fail_fast,
                           faults=self.faults, sanitize=self.sanitize,
                           checkpoints=self.checkpoints)
        self.reports.append(report)
        for fingerprint, outcome in zip(pending, report.outcomes):
            if outcome.result is not None:
                self._results[fingerprint] = outcome.result
            else:
                self._failed[fingerprint] = outcome
        failure = report.first_failure() if self.fail_fast else None
        if failure is not None:
            raise _execution_error(failure)
        return len(wanted)

    # ------------------------------------------------------------------ #
    def run(self, names: str | Sequence[str], *,
            warp: str | tuple = "gto",
            policy: tuple = ("rr",),
            scale_mults: Sequence[float] | None = None,
            config: GPUConfig | None = None) -> RunResult:
        """The memoised result of one job (run on demand if unplanned)."""
        job = self.job(names, warp=warp, policy=policy,
                       scale_mults=scale_mults, config=config)
        fingerprint = job.fingerprint()
        if fingerprint not in self._results:
            self.prefetch([job])
        result = self._results.get(fingerprint)
        if result is None:
            # The batch already tried (and retried) this job; raise the
            # recorded outcome instead of re-simulating a known failure.
            raise _execution_error(self._failed[fingerprint])
        return result

    # ------------------------------------------------------------------ #
    def static_sweep(self, name: str) -> dict[int, RunResult]:
        """One GTO run per static CTA limit 1..occupancy."""
        return {limit: self.run(name, policy=("static", limit))
                for limit in range(1, self.occupancy(name) + 1)}

    def oracle_best(self, name: str) -> tuple[int, RunResult]:
        """(best static limit, its run) by cycles."""
        sweep = self.static_sweep(name)
        best = best_static_limit(sweep)
        return best, sweep[best]

    # ------------------------------------------------------------------ #
    def _run_label(self, job: SimJob) -> str:
        """A filesystem-safe slug for one run's parameters.  A kernel run
        at a scale multiplier other than 1 carries it (``blackscholes-x3``),
        and a run on other hardware than the context's also carries its
        fingerprint."""
        warp_part = (f"{job.warp[0]}{job.warp[1]}"
                     if isinstance(job.warp, tuple) else str(job.warp))
        policy_part = "_".join(str(p) for p in job.policy if p is not None)
        names = "+".join(name if mult == 1.0 else f"{name}-x{mult:g}"
                         for name, mult in zip(job.names, job.scale_mults))
        slug = f"{names}.{warp_part}.{policy_part}"
        if job.config != self.config:
            slug += f".{job.fingerprint()[:12]}"
        return slug.replace("/", "-").replace(" ", "")

    def telemetry_runs(self) -> list[tuple[str, RunResult]]:
        """Memoised runs that carry telemetry, as (label, result) pairs.

        Labels are deterministic slugs of the run parameters, suitable as
        file stems; runs without a timeline or trace are skipped.
        """
        runs: dict[str, tuple[str, RunResult]] = {}
        for job in self._env.jobs():
            result = self._results.get(job.fingerprint())
            if result is not None and ("timeline" in result.meta
                                       or "trace" in result.meta):
                runs.setdefault(job.fingerprint(),
                                (self._run_label(job), result))
        return sorted(runs.values(), key=lambda pair: pair[0])

    # ------------------------------------------------------------------ #
    def failure_outcomes(self) -> list[JobOutcome]:
        """Every failed/timed-out/skipped outcome across all batches run
        through this context."""
        return [outcome for report in self.reports
                for outcome in report.outcomes if outcome.result is None]

    def engine_events(self) -> list[dict]:
        """The engine's own trace events (retries, timeouts, respawns)
        across all batches, timed from the first batch's start."""
        if not self.reports:
            return []
        return rebased_events(self.reports, self.reports[0].started)


def _execution_error(outcome: JobOutcome) -> JobExecutionError:
    return JobExecutionError(outcome.fingerprint,
                             outcome.error or outcome.status,
                             outcome.worker_traceback)


# =========================================================================== #
# design vocabulary shared by the E-driver declarations
# =========================================================================== #

def _bench_factor(benchmarks: Sequence[str]) -> Factor:
    return Factor.crossed("bench", tuple(benchmarks))


def _policy_factor(*policies: tuple) -> Factor:
    return Factor.crossed("policy", tuple(policies))


def _variant_factors(*variants: tuple[str, tuple]) -> list[Factor]:
    """A (warp, policy) combination factor, split by derivation."""
    return [
        Factor.crossed("variant", tuple(variants)),
        Factor.derived("warp", lambda cell, env: cell["variant"][0]),
        Factor.derived("policy", lambda cell, env: cell["variant"][1]),
    ]


def static_sweep_design(benchmarks: Sequence[str]) -> Design:
    """bench x (limit nested in occupancy) -> ('static', limit) jobs.

    The canonical nested factor: the limit range depends on the
    benchmark's occupancy under the compile environment's scale and
    hardware, so the design stays correct at every ``--scale``.
    """
    return Design(
        "static-sweep",
        factors=[
            _bench_factor(benchmarks),
            Factor.crossed("warp", ("gto",)),
            Factor.nested("limit", lambda cell, env: range(
                1, env.occupancy(cell["bench"]) + 1)),
            Factor.derived("policy",
                           lambda cell, env: ("static", cell["limit"])),
        ])


def baseline_design(benchmarks: Sequence[str]) -> Design:
    """The max-occupancy GTO baseline every speedup normalizes to."""
    return Design("baseline", factors=[
        _bench_factor(benchmarks),
        Factor.crossed("warp", ("gto",)),
        _policy_factor(("rr",)),
    ])


# =========================================================================== #
# E1 — motivation: IPC vs CTAs per core
# =========================================================================== #

def design_e1() -> Design:
    return Design.chain("e1", static_sweep_design(MOTIVATION_SET))


def e1_occupancy_sweep(ctx: ExperimentContext) -> Table:
    """Normalized IPC against the per-core CTA limit (paper's motivation
    figure): memory-sensitive kernels peak *below* maximum occupancy."""
    max_occ = max(ctx.occupancy(name) for name in MOTIVATION_SET)
    columns = ["benchmark"] + [f"n={n}" for n in range(1, max_occ + 1)] \
        + ["best_n", "max_n"]
    table = Table("E1: normalized IPC vs CTAs per core (1.0 = max occupancy)",
                  columns)
    for name in MOTIVATION_SET:
        sweep = ctx.static_sweep(name)
        occupancy = max(sweep)
        base_ipc = sweep[occupancy].ipc
        cells: list[Any] = [name]
        for n in range(1, max_occ + 1):
            cells.append(sweep[n].ipc / base_ipc if n in sweep else "-")
        cells.extend([best_static_limit(sweep), occupancy])
        table.add_row(*cells)
    table.add_note("values are IPC normalized to the maximum-occupancy run")
    return table


# =========================================================================== #
# E2 — motivation: per-CTA issue counts under GTO
# =========================================================================== #

def design_e2() -> Design:
    return Design("e2", factors=[
        _bench_factor(MOTIVATION_SET),
        _policy_factor(LCS),
    ])


def e2_issue_signature(ctx: ExperimentContext) -> Table:
    """The monitored core's per-CTA issued-instruction distribution at the
    end of the LCS monitoring period, normalized to the busiest CTA."""
    max_occ = max(ctx.occupancy(name) for name in MOTIVATION_SET)
    columns = ["benchmark"] + [f"cta{r}" for r in range(1, max_occ + 1)] \
        + ["n_star"]
    table = Table("E2: per-CTA issue share under GTO (monitoring period)",
                  columns)
    for name in MOTIVATION_SET:
        result = ctx.run(name, policy=LCS)
        decision = result.meta["lcs_decision"]
        counts = decision.issue_counts
        busiest = max(counts) if counts else 1
        cells: list[Any] = [name]
        for rank in range(max_occ):
            cells.append(counts[rank] / busiest if rank < len(counts) else "-")
        cells.append(decision.n_star)
        table.add_row(*cells)
    table.add_note(f"n_star computed by the {LCS_RULE} rule at {LCS_PARAM}")
    return table


# =========================================================================== #
# E3 — headline: LCS speedup over the maximum-occupancy baseline
# =========================================================================== #

def design_e3() -> Design:
    return Design.chain(
        "e3",
        baseline_design(LCS_SET),
        Design("e3-lcs", factors=[
            _bench_factor(LCS_SET), _policy_factor(LCS)]),
        static_sweep_design(LCS_SET))


def e3_lcs_speedup(ctx: ExperimentContext) -> Table:
    """The headline figure: LCS speedup over the max-occupancy baseline,
    with the exhaustive static oracle alongside."""
    table = Table(
        "E3: LCS and oracle speedup over baseline (GTO, max occupancy)",
        ["benchmark", "base_ipc", "lcs_ipc", "oracle_ipc",
         "lcs_speedup", "oracle_speedup", "n_lcs", "n_oracle"])
    lcs_speedups = []
    oracle_speedups = []
    for name in LCS_SET:
        base = ctx.run(name)
        lcs = ctx.run(name, policy=LCS)
        best_limit, oracle = ctx.oracle_best(name)
        decision = lcs.meta["lcs_decision"]
        s_lcs = speedup(base.cycles, lcs.cycles)
        s_oracle = speedup(base.cycles, oracle.cycles)
        lcs_speedups.append(s_lcs)
        oracle_speedups.append(s_oracle)
        table.add_row(name, base.ipc, lcs.ipc, oracle.ipc, s_lcs, s_oracle,
                      decision.n_star if decision else "-", best_limit)
    table.add_row("GMEAN", "-", "-", "-", geomean(lcs_speedups),
                  geomean(oracle_speedups), "-", "-")
    return table


# =========================================================================== #
# E4 — LCS decision quality vs the exhaustive oracle
# =========================================================================== #

def design_e4() -> Design:
    return Design.chain(
        "e4",
        Design("e4-lcs", factors=[
            _bench_factor(LCS_SET), _policy_factor(LCS)]),
        static_sweep_design(LCS_SET))


def e4_lcs_vs_oracle(ctx: ExperimentContext) -> Table:
    """Decision quality: the online N* against the oracle's static best."""
    table = Table(
        "E4: LCS-chosen CTA count vs oracle static best",
        ["benchmark", "occupancy", "n_lcs", "n_oracle",
         "lcs_vs_oracle_cycles", "within_one"])
    for name in LCS_SET:
        lcs = ctx.run(name, policy=LCS)
        decision = lcs.meta["lcs_decision"]
        best_limit, oracle = ctx.oracle_best(name)
        n_lcs = decision.n_star if decision else ctx.occupancy(name)
        ratio = oracle.cycles / lcs.cycles   # 1.0 = LCS matches the oracle
        table.add_row(name, ctx.occupancy(name), n_lcs, best_limit, ratio,
                      abs(n_lcs - best_limit) <= 1)
    return table


# =========================================================================== #
# E5 — warp-scheduler baseline: LRR vs GTO
# =========================================================================== #

def design_e5() -> Design:
    return Design("e5", factors=[
        _bench_factor(LCS_SET),
        Factor.crossed("warp", ("lrr", "gto", "two-level")),
        _policy_factor(("rr",)),
    ])


def e5_warp_schedulers(ctx: ExperimentContext) -> Table:
    """Warp-scheduler baselines: LRR vs GTO vs two-level round robin."""
    table = Table(
        "E5: warp schedulers at max occupancy (speedup over LRR)",
        ["benchmark", "lrr_ipc", "gto_ipc", "twolevel_ipc",
         "gto_over_lrr", "twolevel_over_lrr"])
    gto_ratios, two_ratios = [], []
    for name in LCS_SET:
        lrr = ctx.run(name, warp="lrr")
        gto = ctx.run(name, warp="gto")
        two = ctx.run(name, warp="two-level")
        r_gto = speedup(lrr.cycles, gto.cycles)
        r_two = speedup(lrr.cycles, two.cycles)
        gto_ratios.append(r_gto)
        two_ratios.append(r_two)
        table.add_row(name, lrr.ipc, gto.ipc, two.ipc, r_gto, r_two)
    table.add_row("GMEAN", "-", "-", "-", geomean(gto_ratios),
                  geomean(two_ratios))
    return table


# =========================================================================== #
# E6 — BCS and BCS+BAWS speedups
# =========================================================================== #

def design_e6() -> Design:
    """The (baseline, BCS, BCS+BAWS) cells E6 and E7 both consume."""
    return Design("e6", factors=[
        _bench_factor(LOCALITY_SET),
        *_variant_factors(("gto", ("rr",)), ("gto", BCS), ("baws", BCS)),
    ])


def e6_bcs(ctx: ExperimentContext) -> Table:
    """BCS and BCS+BAWS speedups on the inter-CTA-locality kernels."""
    table = Table(
        "E6: BCS speedup over baseline (block = consecutive pair)",
        ["benchmark", "base_ipc", "bcs_gto", "bcs_baws"])
    gto_speedups = []
    baws_speedups = []
    for name in LOCALITY_SET:
        base = ctx.run(name)
        bcs = ctx.run(name, policy=BCS)
        baws = ctx.run(name, warp="baws", policy=BCS)
        s_gto = speedup(base.cycles, bcs.cycles)
        s_baws = speedup(base.cycles, baws.cycles)
        gto_speedups.append(s_gto)
        baws_speedups.append(s_baws)
        table.add_row(name, base.ipc, s_gto, s_baws)
    table.add_row("GMEAN", "-", geomean(gto_speedups), geomean(baws_speedups))
    return table


# =========================================================================== #
# E7 — L1 behaviour under BCS
# =========================================================================== #

def e7_bcs_l1(ctx: ExperimentContext) -> Table:
    """L1 miss rates and MSHR merges under BCS (where the speedup is from)."""
    table = Table(
        "E7: L1 miss rate and MSHR merges under BCS",
        ["benchmark", "miss_base", "miss_bcs", "miss_baws",
         "merges_base", "merges_bcs", "merges_baws"])
    for name in LOCALITY_SET:
        base = ctx.run(name)
        bcs = ctx.run(name, policy=BCS)
        baws = ctx.run(name, warp="baws", policy=BCS)
        table.add_row(name, base.l1.miss_rate, bcs.l1.miss_rate,
                      baws.l1.miss_rate, base.l1.merges, bcs.l1.merges,
                      baws.l1.merges)
    return table


# =========================================================================== #
# E8 — concurrent kernel execution
# =========================================================================== #

def design_e8() -> Design:
    return Design("e8", factors=[
        Factor.crossed("pair", CKE_PAIRS),
        _policy_factor(("sequential",), ("spatial",), ("smk",), MIXED),
        Factor.derived("bench",
                       lambda cell, env: tuple(cell["pair"][:2])),
        Factor.derived("scale_mults",
                       lambda cell, env: (1.0, cell["pair"][2])),
    ])


def e8_cke(ctx: ExperimentContext) -> Table:
    """Concurrent kernel execution: sequential vs spatial vs SMK-even vs
    the paper's LCS-guided mixed allocation."""
    table = Table(
        "E8: concurrent kernel execution (speedup over sequential)",
        ["pair", "seq_cycles", "spatial", "smk_even", "mixed", "n_star"])
    spatial_s, smk_s, mixed_s = [], [], []
    for mem_name, compute_name, mult in CKE_PAIRS:
        names = (mem_name, compute_name)
        mults = (1.0, mult)
        seq = ctx.run(names, policy=("sequential",), scale_mults=mults)
        spa = ctx.run(names, policy=("spatial",), scale_mults=mults)
        smk = ctx.run(names, policy=("smk",), scale_mults=mults)
        mix = ctx.run(names, policy=MIXED, scale_mults=mults)
        decision = mix.meta["lcs_decision"]
        s_spa = speedup(seq.cycles, spa.cycles)
        s_smk = speedup(seq.cycles, smk.cycles)
        s_mix = speedup(seq.cycles, mix.cycles)
        spatial_s.append(s_spa)
        smk_s.append(s_smk)
        mixed_s.append(s_mix)
        table.add_row(f"{mem_name}+{compute_name}", seq.cycles, s_spa, s_smk,
                      s_mix, decision.n_star if decision else "-")
    table.add_row("GMEAN", "-", geomean(spatial_s), geomean(smk_s),
                  geomean(mixed_s), "-")
    return table


# =========================================================================== #
# E9 — sensitivity: LCS issue-share threshold
# =========================================================================== #

#: The LCS (rule, parameter) variants E9 sweeps.
E9_VARIANTS = (("tail", 0.3), ("tail", 0.5), ("tail", 0.7),
               ("coverage", 0.9), ("threshold", 0.18))


def design_e9() -> Design:
    return Design.chain(
        "e9",
        baseline_design(LCS_SET),
        Design("e9-variants", factors=[
            _bench_factor(LCS_SET),
            Factor.crossed("rule_param", E9_VARIANTS),
            Factor.derived("policy",
                           lambda cell, env: ("lcs",) + cell["rule_param"]),
        ]))


def e9_lcs_threshold(ctx: ExperimentContext) -> Table:
    """Sensitivity of LCS to its decision rule and parameter."""
    columns = ["benchmark"] + [f"{rule[:3]}={param}"
                               for rule, param in E9_VARIANTS]
    table = Table("E9: LCS speedup vs decision rule/parameter", columns)
    per_variant: dict[tuple[str, float], list[float]] = {
        v: [] for v in E9_VARIANTS}
    for name in LCS_SET:
        base = ctx.run(name)
        cells: list[Any] = [name]
        for rule, param in E9_VARIANTS:
            lcs = ctx.run(name, policy=("lcs", rule, param))
            value = speedup(base.cycles, lcs.cycles)
            per_variant[(rule, param)].append(value)
            cells.append(value)
        table.add_row(*cells)
    table.add_row("GMEAN", *[geomean(per_variant[v]) for v in E9_VARIANTS])
    return table


# =========================================================================== #
# E10 — sensitivity: BCS block size
# =========================================================================== #

#: The BCS block sizes E10 sweeps.
E10_BLOCKS = (1, 2, 4)


def design_e10() -> Design:
    return Design.chain(
        "e10",
        baseline_design(LOCALITY_SET),
        Design("e10-blocks", factors=[
            _bench_factor(LOCALITY_SET),
            Factor.crossed("warp", ("baws",)),
            Factor.crossed("block", E10_BLOCKS),
            Factor.derived("policy",
                           lambda cell, env: ("bcs", cell["block"], None)),
        ]))


def e10_block_size(ctx: ExperimentContext) -> Table:
    """Sensitivity of BCS+BAWS to the block size (pairs are the sweet spot)."""
    columns = ["benchmark"] + [f"block={b}" for b in E10_BLOCKS]
    table = Table("E10: BCS+BAWS speedup vs block size", columns)
    per_size: dict[int, list[float]] = {b: [] for b in E10_BLOCKS}
    for name in LOCALITY_SET:
        base = ctx.run(name)
        cells: list[Any] = [name]
        for b in E10_BLOCKS:
            run = ctx.run(name, warp="baws", policy=("bcs", b, None))
            value = speedup(base.cycles, run.cycles)
            per_size[b].append(value)
            cells.append(value)
        table.add_row(*cells)
    table.add_row("GMEAN", *[geomean(per_size[b]) for b in E10_BLOCKS])
    return table


# =========================================================================== #
# E11 — ablation: LCS needs a greedy warp scheduler
# =========================================================================== #

E11_BENCHMARKS = ("kmeans", "iindex", "spmv", "streaming")


def design_e11() -> Design:
    return Design.chain(
        "e11",
        static_sweep_design(E11_BENCHMARKS),
        Design("e11-matrix", factors=[
            _bench_factor(E11_BENCHMARKS),
            Factor.crossed("warp", ("gto", "lrr")),
            _policy_factor(("rr",), LCS),
        ]))


def e11_lcs_needs_gto(ctx: ExperimentContext) -> Table:
    """Run the LCS monitor under LRR: without greedy age priority the
    per-CTA issue counts flatten out and the decision degrades."""
    table = Table(
        "E11: LCS decision under GTO vs LRR monitoring",
        ["benchmark", "n_oracle", "n_gto", "n_lrr",
         "speedup_gto", "speedup_lrr"])
    for name in E11_BENCHMARKS:
        best_limit, _ = ctx.oracle_best(name)
        base_gto = ctx.run(name)
        base_lrr = ctx.run(name, warp="lrr")
        lcs_gto = ctx.run(name, policy=LCS)
        lcs_lrr = ctx.run(name, warp="lrr", policy=LCS)
        d_gto = lcs_gto.meta["lcs_decision"]
        d_lrr = lcs_lrr.meta["lcs_decision"]
        table.add_row(name, best_limit,
                      d_gto.n_star if d_gto else "-",
                      d_lrr.n_star if d_lrr else "-",
                      speedup(base_gto.cycles, lcs_gto.cycles),
                      speedup(base_lrr.cycles, lcs_lrr.cycles))
    return table


# =========================================================================== #
# E12 — configuration and benchmark-characteristics tables
# =========================================================================== #

def e12_config_table(ctx: ExperimentContext) -> Table:
    config = ctx.config
    table = Table("E12a: simulated GPU configuration", ["parameter", "value"])
    rows = [
        ("SIMT cores", config.num_sms),
        ("warp size", config.warp_size),
        ("max CTAs / core", config.max_ctas_per_sm),
        ("max warps / core", config.max_warps_per_sm),
        ("registers / core", config.registers_per_sm),
        ("shared memory / core", f"{config.shared_mem_per_sm // 1024} KB"),
        ("warp schedulers / core", config.issue_width),
        ("L1D / core", f"{config.l1_size // 1024} KB, "
                       f"{config.l1_assoc}-way, {config.line_size} B lines"),
        ("L1D MSHRs", f"{config.l1_mshr_entries} entries, "
                      f"{config.l1_mshr_max_merge} merges"),
        ("L2 (shared)", f"{config.l2_size // 1024} KB, "
                        f"{config.l2_num_banks} banks, {config.l2_assoc}-way"),
        ("interconnect latency", f"{config.icnt_latency} cycles each way"),
        ("DRAM", f"{config.dram_channels} channels x "
                 f"{config.dram_banks_per_channel} banks, "
                 f"{config.dram_row_lines * config.line_size // 1024} KB rows"),
        ("DRAM timing", f"CAS {config.dram_t_cas} / row-miss "
                        f"{config.dram_t_row_miss} / burst "
                        f"{config.dram_t_burst} cycles"),
    ]
    for name, value in rows:
        table.add_row(name, value)
    return table


def e12_benchmark_table(ctx: ExperimentContext) -> Table:
    table = Table(
        "E12b: benchmark characteristics",
        ["benchmark", "category", "ctas", "warps_per_cta", "occupancy",
         "mem_intensity", "instr_per_warp"])
    for name, info in SUITE.items():
        kernel = ctx.kernel(name)
        program = kernel.build_warp_program(0, 0)
        table.add_row(name, info.category, kernel.num_ctas,
                      kernel.warps_per_cta, kernel.max_ctas_per_sm(ctx.config),
                      memory_intensity(program), len(program))
    return table


# =========================================================================== #
# E13 — extension: LCS vs DynCTA-style continuous throttling
# =========================================================================== #

E13_BENCHMARKS = ("kmeans", "iindex", "streaming", "spmv", "compute",
                  "stencil")


def design_e13() -> Design:
    return Design("e13", factors=[
        _bench_factor(E13_BENCHMARKS),
        _policy_factor(("rr",), LCS, ("dyncta",)),
    ])


def e13_lcs_vs_dyncta(ctx: ExperimentContext) -> Table:
    """Compare the paper's one-shot LCS against the prior continuous
    CTA-throttling approach (DynCTA-style, Kayiran et al. PACT'13)."""
    table = Table(
        "E13: LCS vs DynCTA-style throttling (speedup over baseline)",
        ["benchmark", "lcs", "dyncta", "lcs_n_star", "dyncta_final_quota"])
    lcs_speedups, dyn_speedups = [], []
    for name in E13_BENCHMARKS:
        base = ctx.run(name)
        lcs = ctx.run(name, policy=LCS)
        dyn = ctx.run(name, policy=("dyncta",))
        decision = lcs.meta["lcs_decision"]
        quotas = [q for q in dyn.cta_limits.values() if q is not None]
        mean_quota = sum(quotas) / len(quotas) if quotas else "-"
        s_lcs = speedup(base.cycles, lcs.cycles)
        s_dyn = speedup(base.cycles, dyn.cycles)
        lcs_speedups.append(s_lcs)
        dyn_speedups.append(s_dyn)
        table.add_row(name, s_lcs, s_dyn,
                      decision.n_star if decision else "-", mean_quota)
    table.add_row("GMEAN", geomean(lcs_speedups), geomean(dyn_speedups),
                  "-", "-")
    return table


# =========================================================================== #
# E14 — extension: CKE fairness metrics (ANTT / STP)
# =========================================================================== #

#: The CKE pairs E14 measures.
E14_PAIRS = CKE_PAIRS[:3]


def design_e14() -> Design:
    return Design.chain(
        "e14",
        # Each kernel alone (the ANTT/STP normalization runs): the memory
        # kernel at its natural size, the compute kernel at the pair's
        # multiplier.
        Design("e14-alone", factors=[
            Factor.crossed("pair", E14_PAIRS),
            Factor.crossed("role", ("mem", "compute")),
            Factor.derived("bench", lambda cell, env: (
                cell["pair"][0] if cell["role"] == "mem"
                else cell["pair"][1])),
            Factor.derived("scale_mults", lambda cell, env: (
                None if cell["role"] == "mem" else (cell["pair"][2],))),
        ]),
        Design("e14-shared", factors=[
            Factor.crossed("pair", E14_PAIRS),
            _policy_factor(("smk",), MIXED),
            Factor.derived("bench",
                           lambda cell, env: tuple(cell["pair"][:2])),
            Factor.derived("scale_mults",
                           lambda cell, env: (1.0, cell["pair"][2])),
        ]))


def e14_cke_metrics(ctx: ExperimentContext) -> Table:
    """Multiprogram metrics for the CKE policies: beyond total runtime,
    how fairly and how productively do the kernels share the machine?"""
    table = Table(
        "E14: CKE multiprogram metrics (ANTT lower / STP higher is better)",
        ["pair", "policy", "antt", "stp", "fairness"])
    policies = [("smk", ("smk",)), ("mixed", MIXED)]
    for mem_name, compute_name, mult in E14_PAIRS:
        names = (mem_name, compute_name)
        mults = (1.0, mult)
        alone = {
            mem_name: ctx.run(mem_name),
            compute_name: ctx.run(compute_name, scale_mults=(mult,)),
        }
        for label, policy in policies:
            shared = ctx.run(names, policy=policy, scale_mults=mults)
            metrics = cke_metrics(shared, alone)
            table.add_row(f"{mem_name}+{compute_name}", label,
                          metrics.antt, metrics.stp, metrics.fairness)
    return table


# =========================================================================== #
# E15 — extension: composing LCS with BCS
# =========================================================================== #

def design_e15() -> Design:
    return Design("e15", factors=[
        _bench_factor(LOCALITY_SET),
        *_variant_factors(("gto", ("rr",)), ("gto", LCS), ("baws", BCS),
                          ("baws", LCS_BCS)),
    ])


def e15_lcs_plus_bcs(ctx: ExperimentContext) -> Table:
    """The paper's two mechanisms composed: block dispatch + lazy limit."""
    table = Table(
        "E15: LCS, BCS and LCS+BCS on the locality kernels "
        "(speedup over baseline)",
        ["benchmark", "lcs", "bcs_baws", "lcs_bcs_baws"])
    col = {"lcs": [], "bcs": [], "both": []}
    for name in LOCALITY_SET:
        base = ctx.run(name)
        lcs = ctx.run(name, policy=LCS)
        bcs = ctx.run(name, warp="baws", policy=BCS)
        both = ctx.run(name, warp="baws", policy=LCS_BCS)
        s = [speedup(base.cycles, r.cycles) for r in (lcs, bcs, both)]
        col["lcs"].append(s[0])
        col["bcs"].append(s[1])
        col["both"].append(s[2])
        table.add_row(name, *s)
    table.add_row("GMEAN", geomean(col["lcs"]), geomean(col["bcs"]),
                  geomean(col["both"]))
    return table


# =========================================================================== #
# E16 — analysis: warp-state breakdown under the baseline vs LCS
# =========================================================================== #

E16_BENCHMARKS = ("kmeans", "iindex", "streaming", "compute")


def design_e16() -> Design:
    return Design("e16", factors=[
        _bench_factor(E16_BENCHMARKS),
        _policy_factor(("rr",), LCS),
    ])


def e16_stall_breakdown(ctx: ExperimentContext) -> Table:
    """Why LCS helps: warp-time spent memory-stalled shrinks after
    throttling (the paper's resource-utilization argument made visible)."""
    table = Table(
        "E16: warp-state time breakdown, baseline vs LCS "
        "(fractions of total warp wait time)",
        ["benchmark", "policy", "mem", "ready", "alu", "barrier",
         "mem_wait_per_instr"])
    for name in E16_BENCHMARKS:
        for label, policy in (("base", ("rr",)), ("lcs", LCS)):
            result = ctx.run(name, policy=policy)
            stats = result.kernel(name)
            breakdown = stats.stall_breakdown()
            per_instr = (stats.mem_wait / stats.instructions
                         if stats.instructions else 0.0)
            table.add_row(name, label, breakdown["mem"], breakdown["ready"],
                          breakdown["alu"], breakdown["barrier"], per_instr)
    return table


# =========================================================================== #
# E17 — extension: warp-granularity (SWL) vs CTA-granularity (LCS) throttling
# =========================================================================== #

E17_BENCHMARKS = ("kmeans", "iindex", "bfs")
#: The per-scheduler warp limits E17's SWL sweep tries.
E17_WARP_LIMITS = (4, 8, 12, 16, 24)


def design_e17() -> Design:
    return Design.chain(
        "e17",
        baseline_design(E17_BENCHMARKS),
        Design("e17-swl", factors=[
            _bench_factor(E17_BENCHMARKS),
            Factor.crossed("limit", E17_WARP_LIMITS),
            Factor.derived("warp", lambda cell, env: ("swl", cell["limit"])),
            _policy_factor(("rr",)),
        ]),
        Design("e17-lcs", factors=[
            _bench_factor(E17_BENCHMARKS), _policy_factor(LCS)]))


def e17_swl_vs_lcs(ctx: ExperimentContext) -> Table:
    """Static warp limiting sweeps the throttle at warp granularity; LCS
    reaches comparable performance at CTA granularity with one online
    decision (the paper's granularity argument)."""
    columns = (["benchmark"] + [f"swl={k}" for k in E17_WARP_LIMITS]
               + ["best_swl", "lcs"])
    table = Table("E17: SWL (per-scheduler warp limit) vs LCS "
                  "(speedup over baseline)", columns)
    for name in E17_BENCHMARKS:
        base = ctx.run(name)
        cells: list[Any] = [name]
        best = 0.0
        for k in E17_WARP_LIMITS:
            run = ctx.run(name, warp=("swl", k))
            value = speedup(base.cycles, run.cycles)
            best = max(best, value)
            cells.append(value)
        lcs = ctx.run(name, policy=LCS)
        cells.append(best)
        cells.append(speedup(base.cycles, lcs.cycles))
        table.add_row(*cells)
    table.add_note("swl=k limits each of the 2 per-SM schedulers to k warps")
    return table


# =========================================================================== #
# E18 — extension/limitation: phase-changing kernels
# =========================================================================== #

E18_BENCHMARK = "twophase"


def design_e18() -> Design:
    return Design.chain(
        "e18",
        Design("e18-policies", factors=[
            _bench_factor((E18_BENCHMARK,)),
            _policy_factor(("rr",), LCS, ("dyncta",)),
        ]),
        static_sweep_design((E18_BENCHMARK,)))


def e18_phase_sensitivity(ctx: ExperimentContext) -> Table:
    """One-shot LCS decides during the first (cache-thrashing) phase and
    cannot revise when the kernel turns compute-bound; continuous schemes
    re-adapt.  An honest limitation study of the paper's mechanism."""
    table = Table(
        "E18: phase-changing kernel — one-shot vs adaptive throttling",
        ["policy", "cycles", "speedup_vs_baseline", "final_limit"])
    base = ctx.run(E18_BENCHMARK)
    table.add_row("baseline", base.cycles, 1.0, "-")
    lcs = ctx.run(E18_BENCHMARK, policy=LCS)
    decision = lcs.meta["lcs_decision"]
    table.add_row("lcs", lcs.cycles, speedup(base.cycles, lcs.cycles),
                  decision.n_star if decision else "-")
    dyn = ctx.run(E18_BENCHMARK, policy=("dyncta",))
    quotas = [q for q in dyn.cta_limits.values() if q is not None]
    table.add_row("dyncta", dyn.cycles, speedup(base.cycles, dyn.cycles),
                  sum(quotas) / len(quotas) if quotas else "-")
    best_limit, oracle = ctx.oracle_best(E18_BENCHMARK)
    table.add_row("static_oracle", oracle.cycles,
                  speedup(base.cycles, oracle.cycles), best_limit)
    return table


# =========================================================================== #
# E19 — robustness: a Kepler-class machine
# =========================================================================== #

E19_BENCHMARKS = ("kmeans", "iindex", "stencil", "compute")


def design_e19() -> Design:
    return Design("e19", factors=[
        Factor.crossed("config", (GPUConfig.kepler_class(),)),
        _bench_factor(E19_BENCHMARKS),
        _policy_factor(("rr",), LCS),
    ])


def e19_config_robustness(ctx: ExperimentContext) -> Table:
    """Repeat the LCS and BCS headline comparisons on a Kepler-class
    configuration (13 fat cores, 16 CTA slots, 64 warps): the conclusions
    must not be artefacts of the Fermi-class default."""
    kepler = GPUConfig.kepler_class()
    table = Table(
        "E19: LCS on a Kepler-class GPU (speedup over baseline)",
        ["benchmark", "occupancy", "n_lcs", "lcs_speedup"])
    for name in E19_BENCHMARKS:
        base = ctx.run(name, config=kepler)
        lcs = ctx.run(name, policy=LCS, config=kepler)
        decision = lcs.meta["lcs_decision"]
        table.add_row(name, ctx.occupancy(name, kepler),
                      decision.n_star if decision else "-",
                      speedup(base.cycles, lcs.cycles))
    return table


# =========================================================================== #
# E20 — modelling ablation: L1 MSHR count
# =========================================================================== #

E20_BENCHMARKS = ("kmeans", "iindex")
#: The L1 MSHR entry counts E20 compares (the default config has 16).
E20_MSHR_COUNTS = (8, 16, 32, 64)


def design_e20() -> Design:
    return Design("e20", factors=[
        Factor.crossed("mshr", E20_MSHR_COUNTS),
        _bench_factor(E20_BENCHMARKS),
        _policy_factor(("rr",), LCS),
        Factor.derived("config", lambda cell, env: {
            "l1_mshr_entries": cell["mshr"]}),
    ])


def e20_mshr_sensitivity(ctx: ExperimentContext) -> Table:
    """How the L1 MSHR budget shapes the LCS opportunity: few MSHRs throttle
    over-subscription by themselves (small LCS win); many MSHRs let maximum
    occupancy flood the memory system (big LCS win).  Documents the key
    modelling choice of this reproduction (default 16)."""
    table = Table(
        "E20: LCS speedup vs L1 MSHR entries",
        ["benchmark"] + [f"mshr={m}" for m in E20_MSHR_COUNTS])
    configs = {m: ctx.config.with_overrides(l1_mshr_entries=m)
               for m in E20_MSHR_COUNTS}
    for name in E20_BENCHMARKS:
        cells: list[Any] = [name]
        for m in E20_MSHR_COUNTS:
            base = ctx.run(name, config=configs[m])
            lcs = ctx.run(name, policy=LCS, config=configs[m])
            cells.append(speedup(base.cycles, lcs.cycles))
        table.add_row(*cells)
    return table


# =========================================================================== #
# E21 — ablation: dispatch order (breadth-first vs depth-first vs BCS)
# =========================================================================== #

def design_e21() -> Design:
    return Design("e21", factors=[
        _bench_factor(LOCALITY_SET),
        *_variant_factors(("gto", ("rr",)), ("gto", ("depth-first",)),
                          ("baws", BCS)),
    ])


def e21_dispatch_order(ctx: ExperimentContext) -> Table:
    """How much of BCS's win is initial placement?  Depth-first dispatch
    co-locates consecutive CTAs at fill time but lets the pairing decay as
    slots refill; BCS maintains it.  (Baseline round-robin never pairs.)"""
    table = Table(
        "E21: CTA dispatch order on the locality kernels "
        "(speedup over round-robin)",
        ["benchmark", "depth_first", "bcs_baws"])
    df_speedups, bcs_speedups = [], []
    for name in LOCALITY_SET:
        base = ctx.run(name)
        depth = ctx.run(name, policy=("depth-first",))
        bcs = ctx.run(name, warp="baws", policy=BCS)
        s_df = speedup(base.cycles, depth.cycles)
        s_bcs = speedup(base.cycles, bcs.cycles)
        df_speedups.append(s_df)
        bcs_speedups.append(s_bcs)
        table.add_row(name, s_df, s_bcs)
    table.add_row("GMEAN", geomean(df_speedups), geomean(bcs_speedups))
    return table


# =========================================================================== #
# E22 — ablation: optional micro-architecture features
# =========================================================================== #

#: Feature label -> GPUConfig overrides (the E22 hardware variants).
_E22_FEATURES: dict[str, dict] = {
    "off": {},
    "prefetch": {"l1_prefetch_next_line": True},
    "store_coalescing": {"store_coalescing": True},
}


E22_BENCHMARKS = ("streaming", "kmeans", "stencil", "histogram")


def design_e22() -> Design:
    return Design("e22", factors=[
        _bench_factor(E22_BENCHMARKS),
        Factor.crossed("feature", tuple(_E22_FEATURES)),
        Factor.derived("config",
                       lambda cell, env: _E22_FEATURES[cell["feature"]]),
    ])


def e22_feature_ablation(ctx: ExperimentContext) -> Table:
    """Next-line prefetching and store write-combining, on vs off: neither
    feature is load-bearing for the paper's conclusions (they are off by
    default), but the ablation shows the model responds sensibly."""
    table = Table(
        "E22: optional feature ablation (speedup over features-off)",
        ["benchmark", "prefetch", "store_coalescing", "prefetches",
         "stores_absorbed"])
    prefetch_config = ctx.config.with_overrides(**_E22_FEATURES["prefetch"])
    coalesce_config = ctx.config.with_overrides(
        **_E22_FEATURES["store_coalescing"])
    for name in E22_BENCHMARKS:
        base = ctx.run(name)
        prefetch = ctx.run(name, config=prefetch_config)
        coalesce = ctx.run(name, config=coalesce_config)
        table.add_row(name,
                      speedup(base.cycles, prefetch.cycles),
                      speedup(base.cycles, coalesce.cycles),
                      prefetch.l1.prefetches,
                      coalesce.l1.stores_coalesced)
    return table


# =========================================================================== #
# registries
# =========================================================================== #

EXPERIMENTS = {
    "e1": e1_occupancy_sweep,
    "e2": e2_issue_signature,
    "e3": e3_lcs_speedup,
    "e4": e4_lcs_vs_oracle,
    "e5": e5_warp_schedulers,
    "e6": e6_bcs,
    "e7": e7_bcs_l1,
    "e8": e8_cke,
    "e9": e9_lcs_threshold,
    "e10": e10_block_size,
    "e11": e11_lcs_needs_gto,
    "e13": e13_lcs_vs_dyncta,
    "e14": e14_cke_metrics,
    "e15": e15_lcs_plus_bcs,
    "e16": e16_stall_breakdown,
    "e17": e17_swl_vs_lcs,
    "e18": e18_phase_sensitivity,
    "e19": e19_config_robustness,
    "e20": e20_mshr_sensitivity,
    "e21": e21_dispatch_order,
    "e22": e22_feature_ablation,
}

#: Experiment id -> zero-argument-callable design builder.  E7 shares E6's
#: design (it reads different columns of the same cells) and E12 has no
#: simulations, so it has no design.
EXPERIMENT_DESIGNS: dict[str, Callable[[], Design]] = {
    "e1": design_e1,
    "e2": design_e2,
    "e3": design_e3,
    "e4": design_e4,
    "e5": design_e5,
    "e6": design_e6,
    "e7": design_e6,
    "e8": design_e8,
    "e9": design_e9,
    "e10": design_e10,
    "e11": design_e11,
    "e13": design_e13,
    "e14": design_e14,
    "e15": design_e15,
    "e16": design_e16,
    "e17": design_e17,
    "e18": design_e18,
    "e19": design_e19,
    "e20": design_e20,
    "e21": design_e21,
    "e22": design_e22,
}


def design_cell_counts(env: DesignEnv | None = None) -> dict[str, int]:
    """Experiment id -> number of design cells under ``env`` (``--list``).

    E12 (static tables) reports 0.  Counts come from the declarations
    alone — nothing simulates.
    """
    env = env if env is not None else DesignEnv()
    counts: dict[str, int] = {}
    for exp_id, builder in EXPERIMENT_DESIGNS.items():
        counts[exp_id] = len(builder().cells(env))
    counts["e12"] = 0
    return counts


def plan_experiments(ctx: ExperimentContext,
                     exp_ids: Sequence[str]) -> int:
    """Run the deduplicated union of several experiments' designs.

    The one place the drivers' designs are compiled and batched: every
    requested design compiles under the context's environment, cells
    with identical jobs collapse (the gto x rr baselines E3/E5/E9/... all
    share, the E6/E7 matrix, the static sweeps E1/E3/E4/E11 revisit) and
    the whole invocation runs as one maximally parallel batch.
    Duplicates drop by job equality first, so only distinct jobs are
    fingerprinted; :meth:`ExperimentContext.prefetch` collapses equal
    fingerprints too.  The drivers then read every cell from the
    context's memo.

    Returns the number of *unique* jobs planned (after dedup).
    """
    env = ctx.design_env()
    unique: dict[SimJob, None] = {}
    for exp_id in exp_ids:
        builder = EXPERIMENT_DESIGNS.get(exp_id)
        if builder is not None:
            for cc in builder().compile(env):
                unique.setdefault(cc.job)
    return ctx.prefetch(unique)


def run_experiment(name: str, ctx: ExperimentContext | None = None) -> Table:
    """Plan and run one experiment by id ('e1'..'e22'); E12 has two table
    functions."""
    ctx = ctx if ctx is not None else ExperimentContext()
    if name == "e12":
        raise ValueError("e12 has two tables: use e12_config_table and "
                         "e12_benchmark_table")
    try:
        driver = EXPERIMENTS[name]
    except KeyError:
        raise ValueError(f"unknown experiment {name!r}; "
                         f"available: {sorted(EXPERIMENTS)} + e12") from None
    plan_experiments(ctx, [name])
    return driver(ctx)
