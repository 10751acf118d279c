"""``repro-verify`` — the correctness gate for the simulator.

Five subcommands, one per verification layer plus a combined gate:

``repro-verify golden``
    Re-run the pinned golden matrix (cache-bypassing) and diff every
    cell bitwise against ``goldens/<tier>/``.  ``--update`` re-baselines
    after an intentional model change.
``repro-verify backend``
    Run the vector-capable golden cells on both simulator backends
    (object and vector) and diff the two results bitwise — the parity
    contract of :mod:`repro.sim.vector`.
``repro-verify refmodel``
    Cross-check the tuned simulator against the unoptimized differential
    reference model, window-by-window, over the pinned cross-check suite.
``repro-verify fuzz``
    Run N seeded metamorphic/property fuzz cases; failures are shrunk to
    minimal cases.
``repro-verify all``
    All four layers; the exit code is the OR of their verdicts.

Exit codes: 0 — everything verified; 1 — at least one drift, divergence
or invariant violation (details on stdout, JSONL artifact via
``--report``/``--report-dir``); 2 — usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Sequence

from ..harness.options import Workers, at_least
from .artifacts import DEFAULT_REPORT_DIR, write_failure_artifact
from .backends import ParityReport, parity_matrix, verify_backends
from .fuzzer import FuzzReport, run_fuzz
from .golden import (DEFAULT_GOLDEN_ROOT, GoldenReport, GoldenStore,
                     golden_matrix, verify_goldens)
from .refmodel import (DEFAULT_WINDOW, CrossCheckResult, cross_check,
                       crosscheck_matrix)

#: Default master seed for fuzz campaigns (the paper's publication date,
#: like the harness' DEFAULT_SEED).
DEFAULT_FUZZ_SEED = 20140219
DEFAULT_FUZZ_CASES = 100


def build_parser() -> argparse.ArgumentParser:
    # Parent parsers: each option is declared once, for its layer and
    # for ``all``.
    tier, store, jobs, window, fuzz, report = (
        argparse.ArgumentParser(add_help=False) for _ in range(6))
    tier.add_argument("--tier", choices=("smoke", "full"), default="smoke",
                      help="which pinned matrix to run (default: smoke)")
    store.add_argument("--store", metavar="DIR", default=None,
                       help="golden store root (default: "
                            "<repo>/goldens/<tier>)")
    jobs.add_argument("--jobs", "-j", type=int, action=Workers, default=1,
                      metavar="N",
                      help="worker processes for the matrix (default 1; "
                           "0 = one per CPU core)")
    window.add_argument("--window", type=int, action=at_least(1, " cycle"),
                        default=DEFAULT_WINDOW, metavar="CYCLES",
                        help="refmodel comparison window size (default: "
                             f"{DEFAULT_WINDOW})")
    fuzz.add_argument("--seed", type=int, action=at_least(0),
                      default=DEFAULT_FUZZ_SEED,
                      help=f"fuzz campaign master seed (default: "
                           f"{DEFAULT_FUZZ_SEED})")
    fuzz.add_argument("--cases", type=int, action=at_least(1),
                      default=DEFAULT_FUZZ_CASES, metavar="N",
                      help=f"number of generated fuzz cases (default: "
                           f"{DEFAULT_FUZZ_CASES})")
    report.add_argument("--report", metavar="FILE", default=None,
                        help="write the failures as a JSONL artifact")

    parser = argparse.ArgumentParser(
        prog="repro-verify",
        description="Correctness gate: golden-result regression store, "
                    "differential reference model, metamorphic fuzzing.")
    sub = parser.add_subparsers(dest="command", required=True)
    golden = sub.add_parser(
        "golden", parents=[tier, store, jobs, report],
        help="re-run the golden matrix and diff bitwise")
    golden.add_argument("--update", action="store_true",
                        help="re-baseline: overwrite every golden with "
                             "the fresh result instead of diffing")
    sub.add_parser("backend", parents=[tier, jobs, report],
                   help="run vector-capable cells on both simulator "
                        "backends and diff bitwise")
    sub.add_parser("refmodel", parents=[window, report],
                   help="cross-check the tuned simulator against the "
                        "reference model")
    fuzz_cmd = sub.add_parser("fuzz", parents=[fuzz, report],
                              help="run seeded metamorphic/property fuzz "
                                   "cases")
    fuzz_cmd.add_argument("--no-shrink", dest="shrink", action="store_false",
                          help="report failing cases unshrunk (faster "
                               "triage turnaround)")
    combined = sub.add_parser(
        "all", parents=[tier, store, jobs, window, fuzz],
        help="run every layer; exit non-zero if any fails")
    combined.add_argument("--report-dir", metavar="DIR",
                          default=str(DEFAULT_REPORT_DIR),
                          help="directory for per-layer JSONL artifacts "
                               f"(default: {DEFAULT_REPORT_DIR})")
    return parser


# --------------------------------------------------------------------------- #
# layers
# --------------------------------------------------------------------------- #

def _store_for(tier: str, override: str | None) -> GoldenStore:
    root = Path(override) if override else DEFAULT_GOLDEN_ROOT / tier
    return GoldenStore(root)


def _progress(done: int, total: int) -> None:
    print(f"\r  {done}/{total}", end="", file=sys.stderr, flush=True)
    if done == total:
        print(file=sys.stderr)


def _run_golden(tier: str, store_path: str | None, *, update: bool,
                jobs: int, report_path: str | None
                ) -> tuple[GoldenReport, list[dict[str, Any]]]:
    cells = golden_matrix(tier)
    store = _store_for(tier, store_path)
    print(f"golden: verifying {len(cells)} cell(s) against {store.root} "
          f"(cache bypassed)")
    report = verify_goldens(cells, store, update=update, workers=jobs,
                            progress=_progress)
    records = [v.to_record() for v in report.failures()]
    print(report.summary_line())
    for verdict in report.failures():
        lanes = ",".join(verdict.lanes) or "-"
        detail = verdict.error or ""
        for lane, entries in verdict.diffs.items():
            head = "; ".join(f"{p}: {a!r} -> {b!r}"
                             for p, a, b in entries[:3])
            more = (f" (+{len(entries) - 3} more)"
                    if len(entries) > 3 else "")
            detail += f"\n      [{lane}] {head}{more}"
        print(f"  DRIFT {verdict.label} [{verdict.status}; lanes: {lanes}]"
              f" {detail}")
    if report_path and records:
        n = write_failure_artifact(
            report_path, records, command="repro-verify golden",
            context={"tier": tier, "store": str(store.root)})
        print(f"  wrote {n} failure record(s) to {report_path}")
    return report, records


def _run_backend(tier: str, *, jobs: int, report_path: str | None
                 ) -> tuple[ParityReport, list[dict[str, Any]]]:
    cells = parity_matrix(tier)
    print(f"backend: {len(cells)} vector-capable cell(s), object vs "
          "vector, bitwise (cache bypassed)")
    report = verify_backends(cells, workers=jobs, progress=_progress)
    records = [v.to_record() for v in report.failures()]
    print(report.summary_line())
    for verdict in report.failures():
        lanes = ",".join(verdict.lanes) or "-"
        detail = verdict.error or ""
        for lane, entries in verdict.diffs.items():
            head = "; ".join(f"{p}: {a!r} != {b!r}"
                             for p, a, b in entries[:3])
            more = (f" (+{len(entries) - 3} more)"
                    if len(entries) > 3 else "")
            detail += f"\n      [{lane}] {head}{more}"
        print(f"  PARITY {verdict.label} [{verdict.status}; lanes: {lanes}]"
              f" {detail}")
    if report_path and records:
        n = write_failure_artifact(
            report_path, records, command="repro-verify backend",
            context={"tier": tier})
        print(f"  wrote {n} failure record(s) to {report_path}")
    return report, records


def _run_refmodel(window: int, report_path: str | None
                  ) -> tuple[list[CrossCheckResult], list[dict[str, Any]]]:
    jobs = crosscheck_matrix()
    print(f"refmodel: cross-checking {len(jobs)} run(s), "
          f"window={window} cycles")
    results = []
    for i, job in enumerate(jobs):
        result = cross_check(job, window=window)
        results.append(result)
        status = "DIVERGED" if result.diverged else "ok"
        print(f"  [{i + 1}/{len(jobs)}] {result.label}: {status}")
        if result.diverged:
            print("    " + result.summary().replace("\n", "\n    "))
    diverged = [r for r in results if r.diverged]
    records = [r.to_record() for r in diverged]
    print(f"refmodel: {len(results) - len(diverged)} ok, "
          f"{len(diverged)} diverged")
    if report_path and records:
        n = write_failure_artifact(
            report_path, records, command="repro-verify refmodel",
            context={"window": window})
        print(f"  wrote {n} failure record(s) to {report_path}")
    return results, records


def _run_fuzz(seed: int, cases: int, *, shrink: bool,
              report_path: str | None
              ) -> tuple[FuzzReport, list[dict[str, Any]]]:
    print(f"fuzz: {cases} case(s), master seed {seed}")
    report = run_fuzz(seed, cases, do_shrink=shrink, progress=_progress)
    print(report.summary_line())
    records = [f.to_record() for f in report.failures]
    for failure in report.failures:
        print(f"  VIOLATION [{failure.invariant}] seed={failure.case.seed}")
        print(f"    {failure.detail}")
        print(f"    shrunk: {failure.shrunk}")
    if report_path and records:
        n = write_failure_artifact(
            report_path, records, command="repro-verify fuzz",
            context={"seed": seed, "cases": cases})
        print(f"  wrote {n} failure record(s) to {report_path}")
    return report, records


# --------------------------------------------------------------------------- #

def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "golden":
        report, _ = _run_golden(args.tier, args.store, update=args.update,
                                jobs=args.jobs, report_path=args.report)
        return 0 if report.ok else 1
    if args.command == "backend":
        report, _ = _run_backend(args.tier, jobs=args.jobs,
                                 report_path=args.report)
        return 0 if report.ok else 1
    if args.command == "refmodel":
        results, _ = _run_refmodel(args.window, args.report)
        return 0 if not any(r.diverged for r in results) else 1
    if args.command == "fuzz":
        report, _ = _run_fuzz(args.seed, args.cases, shrink=args.shrink,
                              report_path=args.report)
        return 0 if report.ok else 1

    # all: run every layer even after a failure — one invocation, full
    # triage picture, artifacts for each failing layer.
    report_dir = Path(args.report_dir)
    golden_report, golden_records = _run_golden(
        args.tier, args.store, update=False, jobs=args.jobs,
        report_path=str(report_dir / "golden-failures.jsonl"))
    print()
    parity_report, parity_records = _run_backend(
        args.tier, jobs=args.jobs,
        report_path=str(report_dir / "backend-failures.jsonl"))
    print()
    crosschecks, refmodel_records = _run_refmodel(
        args.window, str(report_dir / "refmodel-failures.jsonl"))
    print()
    fuzz_report, fuzz_records = _run_fuzz(
        args.seed, args.cases, shrink=True,
        report_path=str(report_dir / "fuzz-failures.jsonl"))
    print()
    all_records = (golden_records + parity_records + refmodel_records
                   + fuzz_records)
    if all_records:
        # A chrome://tracing overlay of every failure; refmodel events
        # land at their first divergent cycle (see telemetry.drift_lane).
        from ..telemetry import merge_chrome_traces
        trace_path = report_dir / "drift-lane.trace"
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        trace_path.write_text(json.dumps(
            merge_chrome_traces([], drift_records=all_records)),
            encoding="utf-8")
        print(f"drift lane trace: {trace_path}")
    verdicts = {
        "golden": golden_report.ok,
        "backend": parity_report.ok,
        "refmodel": not any(r.diverged for r in crosschecks),
        "fuzz": fuzz_report.ok,
    }
    line = ", ".join(f"{layer}: {'ok' if ok else 'FAIL'}"
                     for layer, ok in verdicts.items())
    print(f"verify: {line}")
    return 0 if all(verdicts.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
