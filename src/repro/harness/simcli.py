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

Suite-benchmark runs without ``--timeline``/``--trace`` are described as
declarative jobs and executed through the batch engine, so they share the
persistent result cache with ``repro-exp`` (a repeated invocation replays
the stored statistics instead of re-simulating; disable with
``--no-cache``) and the engine's resilience features — retries, typed
timeouts, checkpoint/resume (``docs/ROBUSTNESS.md``).  Kernel trace files
and telemetry collection run in-process through ``simulate()`` and always
simulate (``--sanitize`` still applies; checkpointing does not).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from ..core.warp_schedulers import available_warp_schedulers
from ..sim.config import GPUConfig
from ..sim.gpu import SimulationTimeout
from ..sim.kernel import Kernel
from ..sim.vector import (VECTOR_WARP_SCHEDULERS, VectorBackendError,
                          vector_supported)
from ..sim.stats import RunResult
from ..telemetry.hub import TelemetryHub
from ..telemetry.trace import write_trace
from ..workloads.patterns import DEFAULT_SEED
from ..workloads.suite import SUITE, make_kernel
from ..workloads.tracefile import load_kernel_trace
from .cache import DEFAULT_CACHE_DIR, ResultCache
from .checkpoints import DEFAULT_CHECKPOINT_DIR, CheckpointPlan
from .engine import DEFAULT_RETRIES, run_batch
from .faults import FaultPlan, FaultSpecError
from .jobs import SimJob, build_policy, build_warp_scheduler
from .runner import simulate
from .validate import VALID_BACKENDS

CONFIGS = ("fermi", "kepler", "small")
POLICIES = ("rr", "static:N", "lcs", "bcs[:B]", "lcs+bcs[:B]", "dyncta")


def _parse_args(argv: Sequence[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="repro-sim",
        description="Simulate one kernel under a chosen scheduling policy.")
    parser.add_argument("kernel",
                        help=f"benchmark name ({', '.join(sorted(SUITE))}) "
                             "or a .json trace file")
    parser.add_argument("--scale", type=float, default=0.4,
                        help="grid-size scale for suite benchmarks "
                             "(default 0.4)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--config", default="fermi",
                        help=f"hardware preset: {', '.join(CONFIGS)} "
                             "(default fermi)")
    parser.add_argument("--warp", default="gto",
                        help="warp scheduler: "
                             f"{', '.join(available_warp_schedulers())} or "
                             "swl:K (default gto)")
    parser.add_argument("--policy", default="rr",
                        help=f"CTA policy: {', '.join(POLICIES)} "
                             "(default rr)")
    parser.add_argument("--backend", default="object",
                        choices=VALID_BACKENDS,
                        help="simulator core: 'object' (per-object "
                             "reference) or 'vector' (array-oriented, "
                             "bitwise-identical results, faster; named "
                             "lrr/gto/baws warp schedulers only; default "
                             "object)")
    parser.add_argument("--timeline", metavar="CSV", nargs="?", const="-",
                        help="write the windowed telemetry timeline as CSV "
                             "to FILE ('-' or no value = stdout; an "
                             "all-digits value sets the window instead and "
                             "prints to stdout; forces a live run)")
    parser.add_argument("--timeline-period", type=int, default=1000,
                        metavar="CYCLES",
                        help="timeline sampling window (default 1000)")
    parser.add_argument("--trace", metavar="FILE",
                        help="write the structured event trace ('.jsonl' = "
                             "JSON lines, else Chrome trace_event JSON for "
                             "chrome://tracing; forces a live run)")
    parser.add_argument("--jobs", "-j", type=int, default=1, metavar="N",
                        help="worker processes for the batch engine "
                             "(a single run never fans out; accepted for "
                             "symmetry with repro-exp)")
    parser.add_argument("--no-cache", action="store_true",
                        help="bypass the persistent result cache "
                             f"({DEFAULT_CACHE_DIR}/)")
    parser.add_argument("--retries", type=int, default=DEFAULT_RETRIES,
                        metavar="N",
                        help="retries for transient failures on the engine "
                             f"path (default {DEFAULT_RETRIES})")
    parser.add_argument("--timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="wall-clock deadline for the run; an overrun "
                             "exits with a typed timeout error instead of "
                             "hanging (default: none)")
    parser.add_argument("--sanitize", action="store_true", default=None,
                        help="check live-state invariants at window "
                             "boundaries during the run; a violation is a "
                             "typed InvariantViolation error (also read "
                             "from $REPRO_SANITIZE)")
    parser.add_argument("--checkpoint-interval", type=int, default=None,
                        metavar="CYCLES",
                        help="snapshot the simulation every CYCLES cycles "
                             "(engine path only); an interrupted run "
                             "resumes from its newest checkpoint on the "
                             "next invocation (default: off)")
    parser.add_argument("--checkpoint-dir", default=DEFAULT_CHECKPOINT_DIR,
                        metavar="DIR",
                        help="checkpoint store directory (default "
                             f"{DEFAULT_CHECKPOINT_DIR}/)")
    parser.add_argument("--faults", metavar="SPEC",
                        help="inject deterministic faults for testing, "
                             "e.g. 'kill-at:0:5000' or 'corrupt:0:5000' "
                             "(also read from $REPRO_FAULTS; see "
                             "docs/ROBUSTNESS.md)")
    return parser.parse_args(argv)


def _load_kernel(spec: str, scale: float, seed: int) -> Kernel:
    if spec.endswith(".json"):
        return load_kernel_trace(spec)
    return make_kernel(spec, scale=scale, seed=seed)


def _make_config(name: str) -> GPUConfig:
    if name == "fermi":
        return GPUConfig()
    if name == "kepler":
        return GPUConfig.kepler_class()
    if name == "small":
        return GPUConfig.small()
    raise ValueError(f"unknown config preset {name!r}; choose from {CONFIGS}")


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
    """The shared summary block (engine path and live path alike)."""
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


def main(argv: Sequence[str] | None = None) -> int:
    args = _parse_args(argv)
    if args.timeline is not None and args.timeline.isdigit() \
            and int(args.timeline) < 1:
        print(f"--timeline window must be >= 1 cycle, got {args.timeline}",
              file=sys.stderr)
        return 2
    if args.timeline_period < 1:
        print(f"--timeline-period must be >= 1 cycle, got "
              f"{args.timeline_period}", file=sys.stderr)
        return 2
    if args.timeout is not None and args.timeout < 0:
        print(f"--timeout must be >= 0, got {args.timeout}", file=sys.stderr)
        return 2
    use_engine = (not args.kernel.endswith(".json")
                  and args.timeline is None
                  and not args.trace)
    try:
        config = _make_config(args.config)
        if args.backend == "vector" and args.checkpoint_interval is not None:
            print("error: the vector backend does not support "
                  "checkpoint/resume; drop --checkpoint-interval or use "
                  "--backend object", file=sys.stderr)
            return 2
        if args.backend == "vector" \
                and not vector_supported(_warp_descriptor(args.warp)):
            print(f"error: warp scheduler {args.warp!r} is not supported "
                  "by the vector backend (supported: "
                  f"{', '.join(sorted(VECTOR_WARP_SCHEDULERS))}); use "
                  "--backend object", file=sys.stderr)
            return 2
        if use_engine:
            job = SimJob(names=(args.kernel,), scale=args.scale,
                         seed=args.seed,
                         warp=_warp_descriptor(args.warp),
                         policy=_policy_descriptor(args.policy),
                         config=config, backend=args.backend)
            job.check()
            kernel = job.build_kernels()[0]
        else:
            kernel = _load_kernel(args.kernel, args.scale, args.seed)
            policy = build_policy(_policy_descriptor(args.policy), [kernel])
            warp = build_warp_scheduler(_warp_descriptor(args.warp))
    except (ValueError, FileNotFoundError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    occupancy = kernel.max_ctas_per_sm(config)
    print(f"kernel {kernel.name}: {kernel.num_ctas} CTAs x "
          f"{kernel.warps_per_cta} warps, occupancy {occupancy} CTAs/SM, "
          f"config {args.config}, warp {args.warp}, policy {args.policy}, "
          f"backend {args.backend}\n")

    if use_engine:
        cache = None if args.no_cache else ResultCache()
        try:
            faults = (FaultPlan.parse(args.faults) if args.faults
                      else FaultPlan.from_env())
        except FaultSpecError as error:
            print(f"bad fault spec: {error}", file=sys.stderr)
            return 2
        checkpoints = None
        if args.checkpoint_interval is not None:
            if args.checkpoint_interval < 1:
                print(f"--checkpoint-interval must be >= 1 cycle, got "
                      f"{args.checkpoint_interval}", file=sys.stderr)
                return 2
            checkpoints = CheckpointPlan(interval=args.checkpoint_interval,
                                         root=args.checkpoint_dir)
        report = run_batch([job], workers=max(args.jobs, 1), cache=cache,
                           retries=max(args.retries, 0),
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
        _print_result(outcome.result, kernel.name, job.policy[0])
        return 0

    # Telemetry configuration for the live path: `--timeline 500` (all
    # digits) means "window 500 cycles, CSV to stdout"; anything else is
    # the destination file ('-' = stdout) sampled at --timeline-period.
    window = None
    timeline_dest = None
    if args.timeline is not None:
        if args.timeline.isdigit():
            window = int(args.timeline)
            timeline_dest = "-"
        else:
            window = args.timeline_period
            timeline_dest = args.timeline
    hub = TelemetryHub(window=window, trace=bool(args.trace))
    try:
        result = simulate(kernel, config=config, warp_scheduler=warp,
                          cta_scheduler=policy, telemetry=hub,
                          wall_timeout=args.timeout, sanitize=args.sanitize,
                          backend=args.backend)
    except VectorBackendError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except SimulationTimeout as error:
        print(f"error: simulation timed out ({error})", file=sys.stderr)
        return 1
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
        write_trace(args.trace, hub.events, timeline=timeline)
        print(f"trace: {len(hub.events)} events -> {args.trace}")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via tests
    raise SystemExit(main())
