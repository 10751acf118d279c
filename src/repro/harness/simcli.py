"""``repro-sim`` — run one simulation from the command line.

The single-run counterpart to ``repro-exp``: pick a benchmark (or a trace
file), a hardware configuration, a warp scheduler and a CTA policy, run it,
and print the summary (optionally with the LCS decision, the stall
breakdown, a windowed telemetry timeline CSV and a structured event trace).

Examples::

    repro-sim kmeans
    repro-sim kmeans --scale 0.25 --policy lcs
    repro-sim stencil --warp baws --policy bcs:2
    repro-sim kmeans --policy static:3 --config kepler
    repro-sim my_kernel.json --policy dyncta --timeline out.csv
    repro-sim kmeans --policy lcs --timeline 500       # window=500, stdout
    repro-sim kmeans --policy lcs --trace out.json     # chrome://tracing
    repro-sim kmeans --trace out.jsonl                 # JSONL event log
    repro-sim kmeans --sanitize                        # in-flight invariants
    repro-sim kmeans --checkpoint-interval 5000        # crash-safe; rerun
                                                       # resumes after a kill

Suite benchmarks run as declarative jobs through the batch engine,
telemetry included (``--timeline``/``--trace`` ride on the job), so they
share the persistent result cache with ``repro-exp`` (a repeated
invocation replays the stored statistics; disable with ``--no-cache``)
and the engine's retries, typed timeouts, fault injection and
checkpoint/resume (``docs/ROBUSTNESS.md``).  Kernel trace files, which
the engine cannot take, run in-process through ``simulate()`` and refuse
``--faults``, ``--retries`` and ``--checkpoint-interval``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from ..core.warp_schedulers import available_warp_schedulers
from ..sim.config import GPUConfig
from ..sim.gpu import SimulationTimeout
from ..sim.stats import RunResult
from ..telemetry.hub import TelemetryHub
from ..telemetry.trace import write_trace
from ..workloads.suite import SUITE
from ..workloads.tracefile import load_kernel_trace
from .cache import DEFAULT_CACHE_DIR
from .engine import run_batch
from .jobs import SimJob, build_policy, build_warp_scheduler
from .options import add_run_options, at_least, run_settings
from .runner import simulate

CONFIGS = {"fermi": GPUConfig, "kepler": GPUConfig.kepler_class,
           "small": GPUConfig.small}
POLICIES = ("rr", "static:N", "lcs", "bcs[:B]", "lcs+bcs[:B]", "dyncta")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-sim",
        description="Simulate one kernel under a chosen scheduling policy.")
    parser.add_argument("kernel",
                        help=f"benchmark name ({', '.join(sorted(SUITE))}) "
                             "or a .json trace file")
    parser.add_argument("--config", default="fermi", choices=CONFIGS,
                        help="hardware preset (default fermi)")
    parser.add_argument("--warp", default="gto",
                        help="warp scheduler: "
                             f"{', '.join(available_warp_schedulers())} or "
                             "swl:K (default gto)")
    parser.add_argument("--policy", default="rr",
                        help=f"CTA policy: {', '.join(POLICIES)} "
                             "(default rr)")
    parser.add_argument("--timeline", metavar="CSV", nargs="?", const="-",
                        help="write the windowed telemetry timeline as CSV "
                             "to FILE ('-' or no value = stdout; an "
                             "all-digits value sets the window instead and "
                             "prints to stdout)")
    parser.add_argument("--timeline-period", type=int,
                        action=at_least(1, " cycle"), default=1000,
                        metavar="CYCLES",
                        help="timeline sampling window (default 1000)")
    parser.add_argument("--trace", metavar="FILE",
                        help="write the structured event trace ('.jsonl' = "
                             "JSON lines, else Chrome trace_event JSON for "
                             "chrome://tracing)")
    add_run_options(parser)
    return parser


def _policy_descriptor(spec: str) -> tuple:
    """Translate a ``--policy`` string into a job-layer descriptor."""
    name, _, arg = spec.partition(":")
    if name == "rr":
        return ("rr",)
    if name == "static":
        if not arg:
            raise ValueError("static policy needs a limit: static:N")
        return ("static", int(arg))
    if name == "lcs":
        return ("lcs",)
    if name == "bcs":
        return ("bcs", int(arg) if arg else 2, None)
    if name == "lcs+bcs":
        return ("lcs+bcs", int(arg) if arg else 2, "tail", None)
    if name == "dyncta":
        return ("dyncta",)
    raise ValueError(f"unknown policy {spec!r}; choose from {POLICIES}")


def _warp_descriptor(spec: str) -> str | tuple:
    name, _, arg = spec.partition(":")
    if name == "swl":
        return ("swl", int(arg) if arg else 8)
    return spec


def _print_result(result: RunResult, kernel_name: str,
                  policy_kind: str) -> None:
    """The summary block of a suite job and a trace file alike."""
    print(result.summary())

    stats = result.kernel(kernel_name)
    breakdown = stats.stall_breakdown()
    print("warp-time breakdown: "
          + "  ".join(f"{k}={v:.2f}" for k, v in breakdown.items()))

    decision = result.meta.get("lcs_decision")
    if decision is not None:
        print(f"LCS decision: N*={decision.n_star}/{decision.occupancy} "
              f"at cycle {decision.decided_cycle} "
              f"(rule {decision.rule}@{decision.param}, "
              f"guard {decision.guard_reason or 'clear'})")
    if policy_kind == "dyncta" and result.cta_limits:
        quotas = result.cta_limits
        print(f"DynCTA final quotas: min={min(quotas.values())} "
              f"max={max(quotas.values())}")


def _timeline(parser: argparse.ArgumentParser,
              args: argparse.Namespace) -> tuple[int | None, str | None]:
    """The timeline window and destination ('-' = stdout): an all-digits
    ``--timeline`` is the window, any other value the destination."""
    if args.timeline is None:
        return None, None
    if not args.timeline.isdigit():
        return args.timeline_period, args.timeline
    if int(args.timeline) < 1:
        parser.error(f"--timeline window must be >= 1 cycle, "
                     f"got {args.timeline}")
    return int(args.timeline), "-"


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    window, timeline_dest = _timeline(parser, args)
    trace_file = args.kernel.endswith(".json")
    if trace_file and (args.faults or args.retries is not None
                       or args.checkpoint_interval is not None):
        parser.error("a trace-file run takes no --faults, --retries or "
                     "--checkpoint-interval")
    config = CONFIGS[args.config]()
    try:
        policy = _policy_descriptor(args.policy)
        warp = _warp_descriptor(args.warp)
        if trace_file:
            kernel = load_kernel_trace(args.kernel)
            policy = build_policy(policy, [kernel])
            warp = build_warp_scheduler(warp)
        else:
            job = SimJob(names=(args.kernel,), scale=args.scale,
                         seed=args.seed, warp=warp, policy=policy,
                         config=config, timeline_window=window,
                         trace=bool(args.trace))
            job.check()
            kernel = job.build_kernels()[0]
    except (ValueError, OSError) as error:
        parser.error(str(error))
    if not trace_file:
        cache, faults, checkpoints, retries = run_settings(parser, args)

    occupancy = kernel.max_ctas_per_sm(config)
    print(f"kernel {kernel.name}: {kernel.num_ctas} CTAs x "
          f"{kernel.warps_per_cta} warps, occupancy {occupancy} CTAs/SM, "
          f"config {args.config}, warp {args.warp}, policy {args.policy}\n")

    if trace_file:
        try:
            result = simulate(kernel, config=config, warp_scheduler=warp,
                              cta_scheduler=policy,
                              telemetry=TelemetryHub(window=window,
                                                     trace=bool(args.trace)),
                              wall_timeout=args.timeout,
                              sanitize=args.sanitize)
        except SimulationTimeout as error:
            print(f"error: simulation timed out ({error})", file=sys.stderr)
            return 1
    else:
        report = run_batch([job], cache=cache, retries=retries,
                           timeout=args.timeout, faults=faults,
                           sanitize=args.sanitize, checkpoints=checkpoints)
        outcome = report.outcomes[0]
        if outcome.result is None:
            print(f"error: job {outcome.fingerprint[:12]} "
                  f"{outcome.status}: {outcome.error}", file=sys.stderr)
            if outcome.worker_traceback:
                print(outcome.worker_traceback.rstrip(), file=sys.stderr)
            if outcome.status == "timeout" and checkpoints is not None \
                    and outcome.progress \
                    and outcome.progress.get("checkpoint_cycle") is not None:
                print(f"[checkpoint @ cycle "
                      f"{outcome.progress['checkpoint_cycle']} saved in "
                      f"{args.checkpoint_dir}/; rerun to resume]",
                      file=sys.stderr)
            return 1
        if outcome.resumed_from is not None:
            print(f"[resumed from cycle {outcome.resumed_from}]",
                  file=sys.stderr)
        if cache is not None:
            state = "hit" if cache.hits else "miss"
            print(f"[cache {state}: {job.fingerprint()[:12]} in "
                  f"{DEFAULT_CACHE_DIR}/]", file=sys.stderr)
        result = outcome.result
    _print_result(result, kernel.name, args.policy.partition(":")[0])

    timeline = result.meta.get("timeline")
    if timeline_dest is not None and timeline is not None:
        csv = timeline.to_csv() + "\n"
        if timeline_dest == "-":
            print(f"\ntimeline ({len(timeline)} windows of "
                  f"{timeline.window} cycles):")
            sys.stdout.write(csv)
        else:
            Path(timeline_dest).write_text(csv)
            print(f"timeline: {len(timeline)} windows of "
                  f"{timeline.window} cycles -> {timeline_dest}")
    if args.trace:
        events = result.meta.get("trace", [])
        write_trace(args.trace, events, timeline=timeline)
        print(f"trace: {len(events)} events -> {args.trace}")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via tests
    raise SystemExit(main())
