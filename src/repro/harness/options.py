"""Option checks shared by every repro CLI.

Each CLI checks its options in its parser, so a bad value exits 2
(:data:`~repro.harness.exit_codes.EXIT_USAGE`) with argparse's usage line
before the command does anything.  The range actions name the option
they refuse (``--scale must be > 0, got 0.0``).
"""

from __future__ import annotations

import argparse
import os

from ..design import DesignError, load_design
from ..workloads.patterns import DEFAULT_SEED
from .cache import DEFAULT_CACHE_DIR, ResultCache
from .checkpoints import DEFAULT_CHECKPOINT_DIR, CheckpointPlan
from .engine import DEFAULT_RETRIES, default_workers
from .faults import ENV_SPEC, FaultPlan, FaultSpecError


def _range(holds, rule: str) -> type[argparse.Action]:
    """An action storing a value that ``holds``, refusing any other."""
    class Range(argparse.Action):
        def __call__(self, parser, namespace, value, option_string=None):
            if not holds(value):
                parser.error(f"{option_string} must be {rule}, got {value}")
            setattr(namespace, self.dest, value)
    return Range


def at_least(low: int, unit: str = "") -> type[argparse.Action]:
    """``action=at_least(N)``: the value must be ``>= N``."""
    return _range(lambda value: value >= low, f">= {low}{unit}")


#: ``action=Positive``: the value must be ``> 0``.
Positive = _range(lambda value: value > 0, "> 0")


class Workers(at_least(0)):
    """``action=Workers``: a ``--jobs`` count; 0 means one per core."""

    def __call__(self, parser, namespace, value, option_string=None):
        super().__call__(parser, namespace, value or default_workers(),
                         option_string)


def fault_spec(text: str) -> str:
    """``type=fault_spec``: a ``--faults`` spec that parses."""
    try:
        # A dry parse: the plan and its state directory are made later.
        FaultPlan.parse(text, state_dir=os.devnull)
    except FaultSpecError as error:
        raise argparse.ArgumentTypeError(f"bad fault spec: {error}") from None
    return text


def fault_plan(parser: argparse.ArgumentParser,
               spec: str | None) -> FaultPlan | None:
    """The plan of ``--faults``, else of ``$REPRO_FAULTS``, else None."""
    try:
        return FaultPlan.parse(spec) if spec else FaultPlan.from_env()
    except FaultSpecError as error:
        parser.error(f"bad fault spec in ${ENV_SPEC}: {error}")


def add_run_options(parser: argparse.ArgumentParser) -> None:
    """Declare the run options ``repro-exp`` and ``repro-sim`` share."""
    parser.add_argument("--scale", type=float, action=Positive, default=0.4,
                        help="grid-size scale factor (default 0.4; 1.0 = "
                             "full size, slower)")
    parser.add_argument("--seed", type=int, action=at_least(0),
                        default=DEFAULT_SEED, help="workload random seed")
    parser.add_argument("--no-cache", action="store_true",
                        help="bypass the persistent result cache "
                             f"({DEFAULT_CACHE_DIR}/)")
    parser.add_argument("--retries", type=int, action=at_least(0),
                        metavar="N",
                        help="retries per job for transient failures "
                             "(broken pool, killed worker, OSError; "
                             f"default {DEFAULT_RETRIES}); deterministic "
                             "simulation errors are never retried")
    parser.add_argument("--timeout", type=float, action=at_least(0),
                        metavar="SECONDS",
                        help="per-job wall-clock deadline; an overrun is a "
                             "typed timeout error, not a hang "
                             "(default: none)")
    parser.add_argument("--sanitize", action="store_true", default=None,
                        help="check live-state invariants at window "
                             "boundaries during every run; a violation is "
                             "a deterministic failure (also read from "
                             "$REPRO_SANITIZE)")
    parser.add_argument("--faults", type=fault_spec, metavar="SPEC",
                        help="inject deterministic faults for testing, "
                             "e.g. 'fail:0,kill:2' or 'kill-at:0:5000' "
                             f"(also read from ${ENV_SPEC}; see "
                             "docs/ROBUSTNESS.md)")
    parser.add_argument("--checkpoint-interval", type=int,
                        action=at_least(1, " cycle"), metavar="CYCLES",
                        help="snapshot every run every CYCLES cycles; a "
                             "crashed or timed-out job resumes from its "
                             "newest checkpoint on retry and on the next "
                             "invocation (default: off)")
    parser.add_argument("--checkpoint-dir", default=DEFAULT_CHECKPOINT_DIR,
                        metavar="DIR",
                        help="checkpoint store directory (default "
                             f"{DEFAULT_CHECKPOINT_DIR}/)")


def run_settings(parser: argparse.ArgumentParser, args: argparse.Namespace
                 ) -> tuple[ResultCache | None, FaultPlan | None,
                            CheckpointPlan | None, int]:
    """The cache, fault plan, checkpoint plan and retry count that the
    :func:`add_run_options` options ask for."""
    checkpoints = (CheckpointPlan(interval=args.checkpoint_interval,
                                  root=args.checkpoint_dir)
                   if args.checkpoint_interval is not None else None)
    return (None if args.no_cache else ResultCache(),
            fault_plan(parser, args.faults), checkpoints,
            DEFAULT_RETRIES if args.retries is None else args.retries)


def load_design_file(parser: argparse.ArgumentParser, path: str):
    """``load_design(path)``; an unreadable or malformed file exits 2."""
    try:
        return load_design(path)
    except OSError as error:
        parser.error(f"cannot read design file {path}: {error}")
    except DesignError as error:
        parser.error(f"bad design file {path}: {error}")
