"""Command-line front end for the experiment harness.

Usage::

    repro-exp --list              # what is available
    repro-exp e3                  # one experiment at the default scale
    repro-exp e1 e6 --scale 0.25  # several, scaled down
    repro-exp all                 # the full reconstructed evaluation
    repro-exp e3 --csv            # machine-readable output
    repro-exp e3 --output out/    # also write CSV files
    repro-exp all --jobs 4        # fan simulations out across 4 processes
    repro-exp all                 # second invocation: warm disk cache,
                                  # zero simulations executed
    repro-exp --clear-cache       # purge .repro-cache/
    repro-exp e1 --timeline --output out/
                                  # + one windowed-telemetry CSV per run
    repro-exp e1 --trace e1.json  # merged chrome://tracing document
    repro-exp all --jobs 8 --retries 3 --timeout 600
                                  # resilient batch: transient worker
                                  # failures retried, runaway jobs become
                                  # typed timeouts, completed results are
                                  # cached even when siblings fail
    repro-exp e3 --fail-fast      # stop at the first failure instead
    repro-exp all --checkpoint-interval 50000 --timeout 600
                                  # long runs snapshot every 50k cycles;
                                  # a crashed or timed-out job resumes
                                  # from its newest checkpoint on retry
                                  # (and on the next invocation)
    repro-exp e3 --sanitize       # check live-state invariants in-flight
    repro-exp --design sweep.toml # run a design file as a resumable
                                  # campaign (.repro-campaigns/ store with
                                  # a write-ahead journal; re-invoking
                                  # resumes where it stopped)
    repro-exp --design sweep.toml --shard &
    repro-exp --design sweep.toml --shard
                                  # two lease-based workers drain one
                                  # campaign concurrently (any number of
                                  # processes, one host or a shared fs)
    repro-exp --design sweep.toml --max-retries 3
                                  # stop retrying a failing cell after 3
                                  # resumes: it is journaled 'exhausted'
                                  # and reported distinctly

Requesting several experiments plans them as one deduplicated batch: the
designs behind the requested ids are compiled up front, cells with
identical job fingerprints (shared baselines, revisited static sweeps)
collapse, and the whole union runs as a single engine batch before the
drivers assemble their tables.

Failures never discard completed work: every finished simulation is cached
as it arrives, failing experiments are reported (per-job failure summary
table + exit status 1) and the remaining experiments still run unless
``--fail-fast`` is given.  See docs/ROBUSTNESS.md for the failure model,
the checkpoint format and the sanitizer's invariant families.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Sequence

from ..design import (DEFAULT_CAMPAIGN_ROOT, DEFAULT_LEASE_TTL, Campaign,
                      CampaignError, DesignEnv, DesignError)
from .cache import DEFAULT_CACHE_DIR, ResultCache
from .checkpoints import CheckpointPlan, CheckpointStore
from .engine import JobExecutionError
from .exit_codes import (EXIT_EXHAUSTED, EXIT_OK, EXIT_PARTIAL)
from .experiments import (EXPERIMENT_DESIGNS, EXPERIMENTS, ExperimentContext,
                          design_cell_counts, e12_benchmark_table,
                          e12_config_table, plan_experiments)
from .jobs import JobError
from .options import (Positive, Workers, add_run_options, at_least,
                      load_design_file, run_settings)
from .reporting import Table

ALL_IDS = tuple(EXPERIMENTS) + ("e12",)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-exp",
        description="Reproduce the paper's evaluation figures/tables.")
    parser.add_argument("experiments", nargs="*",
                        help=f"experiment ids ({', '.join(ALL_IDS)}) or 'all'")
    parser.add_argument("--list", action="store_true",
                        help="list experiments with their design cell "
                             "counts (at --scale) and one-line descriptions")
    parser.add_argument("--design", metavar="FILE",
                        help="run a TOML/JSON design file as a resumable "
                             "campaign instead of built-in experiments "
                             "(see docs/DESIGNS.md)")
    parser.add_argument("--campaign-dir", default=DEFAULT_CAMPAIGN_ROOT,
                        metavar="DIR",
                        help="campaign store root for --design "
                             f"(default {DEFAULT_CAMPAIGN_ROOT}/)")
    parser.add_argument("--shard", action="store_true",
                        help="claim campaign cells in small lease-based "
                             "chunks so several concurrent 'repro-exp "
                             "--design FILE --shard' processes drain one "
                             "campaign together (crashed workers' leases "
                             "expire and are reclaimed)")
    parser.add_argument("--worker-id", metavar="ID", default=None,
                        help="worker id stamped on journal records "
                             "(default: hostname-pid)")
    parser.add_argument("--lease-ttl", type=float, action=Positive,
                        default=None, metavar="SECONDS",
                        help="campaign cell lease time-to-live; a worker "
                             "silent this long loses its cells to other "
                             "shards (default 30)")
    parser.add_argument("--max-retries", type=int, action=at_least(0),
                        default=None, metavar="N",
                        help="per-cell cap on campaign retries: a cell "
                             "failing on N+1 invocations is journaled "
                             "'exhausted' and never claimed again "
                             "(default: retry on every resume, forever)")
    parser.add_argument("--output", metavar="DIR",
                        help="also write each table as CSV into DIR")
    parser.add_argument("--csv", action="store_true",
                        help="emit CSV instead of aligned tables")
    parser.add_argument("--chart", metavar="COLUMN",
                        help="also render COLUMN as an ASCII bar chart")
    parser.add_argument("--jobs", "-j", type=int, action=Workers, default=1,
                        metavar="N",
                        help="worker processes for independent simulations "
                             "(default 1 = serial; 0 = one per CPU core)")
    parser.add_argument("--timeline", nargs="?", const=1000, type=int,
                        action=at_least(1, " cycle"), metavar="WINDOW",
                        help="sample a windowed telemetry timeline per run "
                             "(WINDOW cycles, default 1000); CSVs are "
                             "written when --output is given")
    parser.add_argument("--trace", metavar="FILE",
                        help="write all runs' structured event traces as "
                             "one merged Chrome trace_event document "
                             "(one pid lane per run)")
    parser.add_argument("--clear-cache", action="store_true",
                        help="purge the persistent result cache, then run "
                             "any requested experiments (warns if "
                             "checkpoints remain; see --clean-state)")
    parser.add_argument("--clean-state", action="store_true",
                        help="purge every on-disk state store in one shot: "
                             f"result cache ({DEFAULT_CACHE_DIR}/), "
                             "checkpoints (--checkpoint-dir) and "
                             "golden-store .tmp-* strays; then run any "
                             "requested experiments")
    parser.add_argument("--fail-fast", dest="fail_fast", action="store_true",
                        help="stop at the first failed experiment/job "
                             "(default: keep going, report all failures at "
                             "the end)")
    parser.add_argument("--keep-going", dest="fail_fast",
                        action="store_false",
                        help="run every experiment even after failures "
                             "(the default; negates --fail-fast)")
    add_run_options(parser)
    parser.set_defaults(fail_fast=False)
    return parser


def _parse_args(argv: Sequence[str] | None):
    """The checked command line, its run settings and its campaign.

    Every usage error exits 2 here, before ``--list`` compiles or
    ``--clean-state``/``--clear-cache`` deletes anything.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.design and args.experiments:
        parser.error("--design runs a design file; pass either experiment "
                     "ids or --design, not both")
    if not (args.experiments or args.design or args.list
            or args.clean_state or args.clear_cache):
        parser.error("no experiments requested (try --list)")
    if "all" in args.experiments:
        args.experiments = list(ALL_IDS)
    unknown = [e for e in args.experiments if e not in ALL_IDS]
    if unknown:
        parser.error(f"unknown experiment ids: {unknown}; "
                     f"available: {', '.join(ALL_IDS)}")
    if not args.design and (args.shard or args.worker_id
                            or args.lease_ttl is not None
                            or args.max_retries is not None):
        parser.error("--shard/--worker-id/--lease-ttl/--max-retries apply "
                     "to campaigns; pass --design FILE")
    settings = run_settings(parser, args)
    campaign = None
    if args.design:
        design, env_overrides = load_design_file(parser, args.design)
        env = DesignEnv.merged(env_overrides, scale=args.scale,
                               seed=args.seed, timeline_window=args.timeline,
                               trace=bool(args.trace))
        try:
            campaign = Campaign.open(design, env, root=args.campaign_dir)
        except (CampaignError, DesignError, JobError) as error:
            parser.error(f"cannot open campaign for {args.design}: {error}")
    return args, settings, campaign


def _describe_progress(outcome) -> str:
    """How far a timed-out job got, and whether a checkpoint survives."""
    progress = outcome.progress
    if not progress or progress.get("cycle") is None:
        return "-"
    cycle = progress["cycle"]
    text = f"cycle {cycle}"
    max_cycles = progress.get("max_cycles")
    if max_cycles:
        text += f" ({100.0 * cycle / max_cycles:.1f}% of max)"
    saved = progress.get("checkpoint_cycle")
    if saved is not None:
        text += f", checkpoint @ {saved}"
    else:
        text += ", no checkpoint"
    return text


def _failure_table(failures) -> Table:
    """The per-job failure summary printed after a degraded batch."""
    table = Table("Failure summary (per-job outcomes)",
                  ["job", "fingerprint", "status", "attempts", "progress",
                   "error"])
    for outcome in failures:
        error = (outcome.error or "").splitlines()
        table.add_row(outcome.index, outcome.fingerprint[:12], outcome.status,
                      outcome.attempts, _describe_progress(outcome),
                      error[0][:72] if error else "-")
    table.add_note("completed jobs were cached; rerun to resume from them")
    return table


def _describe(exp_id: str) -> str:
    if exp_id == "e12":
        return "configuration and benchmark-characteristics tables"
    doc = EXPERIMENTS[exp_id].__doc__ or ""
    return " ".join(doc.split("\n\n")[0].split()) or exp_id


def _write_telemetry(ctx: ExperimentContext,
                     args: argparse.Namespace) -> None:
    """Export the memoised runs' telemetry (timeline CSVs, merged trace)."""
    runs = ctx.telemetry_runs()
    if not runs:
        return
    if args.timeline is not None and args.output:
        out_dir = Path(args.output)
        out_dir.mkdir(parents=True, exist_ok=True)
        written = 0
        for label, result in runs:
            timeline = result.meta.get("timeline")
            if not timeline:
                continue
            path = out_dir / f"{label}.timeline.csv"
            path.write_text(timeline.to_csv() + "\n")
            written += 1
        print(f"[timelines: {written} CSV(s) -> {args.output}/]",
              file=sys.stderr)
    if args.trace:
        from ..telemetry.trace import merge_chrome_traces
        named = [(label, result.meta.get("trace") or [],
                  result.meta.get("timeline"))
                 for label, result in runs]
        doc = merge_chrome_traces(named, engine_events=ctx.engine_events())
        Path(args.trace).write_text(json.dumps(doc))
        print(f"[trace: {len(runs)} run(s) merged -> {args.trace}]",
              file=sys.stderr)


def _run_design_campaign(args: argparse.Namespace, campaign: Campaign,
                         cache: ResultCache | None, faults,
                         checkpoints: CheckpointPlan | None,
                         retries: int) -> int:
    """``repro-exp --design FILE``: run a design file as a campaign.

    The campaign store (``<campaign-dir>/<name>-<digest12>/`` — static
    meta plus a write-ahead journal) makes the run resumable and
    shardable: re-invoking with the same file and environment skips
    ``done`` cells entirely, replays interrupted cells from the result
    cache, and with ``--shard`` any number of concurrent invocations
    drain the campaign together under lease-based claiming.

    Exit codes are the uniform service vocabulary
    (:mod:`repro.harness.exit_codes`): 0 every cell done, 1 partial
    (failed cells — a re-invocation retries them), 2 usage error,
    3 at least one cell exhausted its retry budget (terminal; re-running
    cannot finish the campaign).
    """
    counts = campaign.counts()
    extras = "".join(f", {counts[key]} {key}"
                     for key in ("claimed", "exhausted") if counts[key])
    print(f"[campaign {campaign.path.name}: {len(campaign.cells)} cell(s); "
          f"{counts['done']} done, {counts['pending']} pending, "
          f"{counts['failed']} failed{extras}]", file=sys.stderr)
    try:
        report = campaign.run(workers=args.jobs, cache=cache,
                              retries=retries, timeout=args.timeout,
                              fail_fast=args.fail_fast, faults=faults,
                              sanitize=args.sanitize,
                              checkpoints=checkpoints,
                              worker_id=args.worker_id,
                              lease_ttl=(args.lease_ttl
                                         if args.lease_ttl is not None
                                         else DEFAULT_LEASE_TTL),
                              max_retries=args.max_retries,
                              shard=args.shard)
    except JobExecutionError as error:
        print(f"[campaign FAILED: {error}]", file=sys.stderr)
        return 1
    table = Table(f"design {campaign.name} ({campaign.digest[:12]})",
                  ["cell", "status", "cycles", "ipc"])
    for cell in campaign.cells:
        table.add_row(cell.label, cell.status,
                      cell.cycles if cell.cycles is not None else "-",
                      cell.ipc if cell.ipc is not None else "-")
    print(table.to_csv() if args.csv else table.render())
    print()
    if args.output:
        out_dir = Path(args.output)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / f"{campaign.name}.csv").write_text(table.to_csv() + "\n")
    if args.trace:
        from ..telemetry.trace import merge_chrome_traces
        doc = merge_chrome_traces([], engine_events=report.engine_events())
        Path(args.trace).write_text(json.dumps(doc))
        print(f"[trace: {len(report.engine_events())} campaign event(s) "
              f"-> {args.trace}]", file=sys.stderr)
    footer = (f"[campaign: {report.executed} dispatched, "
              f"{report.resumed} already done, {report.failed} failed")
    if report.exhausted:
        footer += f", {report.exhausted} exhausted (past --max-retries)"
    if report.lease_conflicts or report.leases_reclaimed:
        footer += (f", leases: {report.lease_conflicts} lost, "
                   f"{report.leases_reclaimed} reclaimed")
    if report.duplicate_done:
        footer += f", {report.duplicate_done} duplicate completion(s)"
    if report.journal_append_errors:
        footer += (f", {report.journal_append_errors} journal append "
                   f"error(s) (snapshot fallback)")
    if report.checkpoint_corrupt:
        footer += (f", {report.checkpoint_corrupt} corrupt checkpoint(s) "
                   f"quarantined")
    if cache is not None and (cache.write_errors or cache.corrupt_entries):
        footer += (f", cache: {cache.write_errors} write error(s), "
                   f"{cache.corrupt_entries} corrupt quarantined")
    print(footer + f" -> {campaign.path}/]", file=sys.stderr)
    # Uniform exit codes (shared with repro-submit; see
    # repro.harness.exit_codes): exhausted cells are terminal — re-running
    # cannot finish the campaign — and outrank plain failures.
    if report.exhausted:
        return EXIT_EXHAUSTED
    return EXIT_OK if report.ok else EXIT_PARTIAL


def main(argv: Sequence[str] | None = None) -> int:
    args, (cache, faults, checkpoints, retries), campaign = _parse_args(argv)
    if args.list:
        counts = design_cell_counts(DesignEnv(scale=args.scale,
                                              seed=args.seed))
        for exp_id in ALL_IDS:
            cells = (f"{counts[exp_id]:>3} cells"
                     if exp_id in EXPERIMENT_DESIGNS else "   -     ")
            print(f"{exp_id:>4}  {cells}  {_describe(exp_id)}")
        return 0
    if args.clean_state:
        removed = ResultCache().clear()
        print(f"[cache cleared: {removed} entries]", file=sys.stderr)
        ckpts = CheckpointStore(args.checkpoint_dir).clear()
        print(f"[checkpoints cleared: {ckpts} file(s) "
              f"from {args.checkpoint_dir}/]", file=sys.stderr)
        from ..verify.golden import DEFAULT_GOLDEN_ROOT, GoldenStore
        strays = 0
        if DEFAULT_GOLDEN_ROOT.is_dir():
            for tier_dir in sorted(DEFAULT_GOLDEN_ROOT.iterdir()):
                if tier_dir.is_dir():
                    strays += GoldenStore(tier_dir).clear_strays()
        print(f"[golden-store strays cleared: {strays} file(s)]",
              file=sys.stderr)
    elif args.clear_cache:
        removed = ResultCache().clear()
        print(f"[cache cleared: {removed} entries]", file=sys.stderr)
        leftover = CheckpointStore(args.checkpoint_dir)
        stale = len(leftover) + len(leftover.corrupt_strays())
        if stale:
            print(f"[warning: {stale} checkpoint file(s) remain in "
                  f"{args.checkpoint_dir}/ — cached results are gone but "
                  f"their checkpoints are not; use --clean-state or "
                  f"'make clean-state' to drop both]", file=sys.stderr)
    if campaign is not None:
        return _run_design_campaign(args, campaign, cache, faults,
                                    checkpoints, retries)
    requested = args.experiments
    if not requested:
        return 0
    ctx = ExperimentContext(scale=args.scale, seed=args.seed,
                            jobs=args.jobs, cache=cache,
                            timeline_window=args.timeline,
                            trace=bool(args.trace),
                            retries=retries, timeout=args.timeout,
                            fail_fast=args.fail_fast, faults=faults,
                            sanitize=args.sanitize, checkpoints=checkpoints)
    total_started = time.perf_counter()
    # Plan phase: the requested experiments run as a single deduplicated
    # engine batch (their designs share baselines and whole sweeps), so
    # each simulation executes at most once per invocation and
    # parallelism spans experiment boundaries.
    design_ids = [e for e in requested if e in EXPERIMENT_DESIGNS]
    if design_ids:
        plan_started = time.perf_counter()
        try:
            planned = plan_experiments(ctx, design_ids)
        except (JobExecutionError, JobError) as error:
            # --fail-fast stops the shared batch early; the failure is
            # recorded in the context, so the first driver that consumes
            # it reports the experiment below and ends the loop.
            print(f"[plan: batch stopped early: {error}]", file=sys.stderr)
        else:
            print(f"[plan: {planned} unique job(s) across "
                  f"{len(design_ids)} design(s) in "
                  f"{time.perf_counter() - plan_started:.1f}s]",
                  file=sys.stderr)
    failed_experiments: list[str] = []
    for exp_id in requested:
        started = time.perf_counter()
        try:
            if exp_id == "e12":
                tables = [e12_config_table(ctx), e12_benchmark_table(ctx)]
            else:
                tables = [EXPERIMENTS[exp_id](ctx)]
        except (JobExecutionError, JobError) as error:
            # One experiment's failure never discards the rest: completed
            # sibling results are already cached, the remaining experiments
            # still run (unless --fail-fast), and the per-job outcomes are
            # summarised below.
            elapsed = time.perf_counter() - started
            failed_experiments.append(exp_id)
            print(f"[{exp_id} FAILED after {elapsed:.1f}s: {error}]",
                  file=sys.stderr)
            worker_tb = getattr(error, "worker_traceback", None)
            if worker_tb:
                print(worker_tb.rstrip(), file=sys.stderr)
            if args.fail_fast:
                break
            continue
        elapsed = time.perf_counter() - started
        for index, table in enumerate(tables):
            print(table.to_csv() if args.csv else table.render())
            print()
            if args.chart and args.chart in table.columns:
                print(table.render_chart(args.chart))
                print()
            if args.output:
                out_dir = Path(args.output)
                out_dir.mkdir(parents=True, exist_ok=True)
                suffix = chr(ord("a") + index) if len(tables) > 1 else ""
                (out_dir / f"{exp_id}{suffix}.csv").write_text(
                    table.to_csv() + "\n")
        print(f"[{exp_id} finished in {elapsed:.1f}s]", file=sys.stderr)
    if args.timeline is not None or args.trace:
        _write_telemetry(ctx, args)
    failures = ctx.failure_outcomes()
    if failures:
        print(_failure_table(failures).render())
        print()
    total = time.perf_counter() - total_started
    summary = (f"[total: {total:.1f}s for {len(requested)} experiment(s), "
               f"jobs={args.jobs}")
    retried = sum(report.retried for report in ctx.reports)
    if retried:
        summary += f"; {retried} job(s) recovered by retry"
    if failures:
        summary += f"; {len(failures)} job(s) without a result"
    if failed_experiments:
        summary += f"; FAILED: {', '.join(failed_experiments)}"
    resumed = sum(1 for report in ctx.reports
                  for outcome in report.outcomes
                  if outcome.resumed_from is not None)
    if resumed:
        summary += f"; {resumed} job(s) resumed from checkpoint"
    ckpt_corrupt = sum(report.checkpoint_corrupt for report in ctx.reports)
    if ckpt_corrupt:
        summary += (f"; {ckpt_corrupt} corrupt checkpoint(s) quarantined "
                    f"-> {args.checkpoint_dir}/")
    if cache is not None:
        summary += (f"; cache: {cache.hits} hit(s), {cache.misses} miss(es) "
                    f"-> {DEFAULT_CACHE_DIR}/")
        if cache.write_errors:
            summary += f", {cache.write_errors} write error(s)"
        if cache.corrupt_entries:
            summary += (f", {cache.corrupt_entries} corrupt entr"
                        f"{'y' if cache.corrupt_entries == 1 else 'ies'} "
                        f"quarantined")
    print(summary + "]", file=sys.stderr)
    return 1 if (failed_experiments or failures) else 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(main())
