"""``repro-audit``: offline exactly-once auditing over service journals.

The scheduler daemon's journal (``journal.jsonl`` in its state dir) is
the durable truth about every job it accepted; in a federated fleet
(:mod:`repro.service.cluster`) each daemon has its own, plus replicated
``cluster-job`` / ``cluster-terminal`` / ``peer-terminal`` records
gossiped in from peers.  This module folds *all* of those journals into
one cluster-wide verdict, offline, with every daemon stopped — the same
post-hoc shape as campaign journal replay, one level up the stack.

The distinction that makes the audit honest: a job is **executed** on a
node only where that node journaled its own ``done`` / ``failed`` /
``quarantined`` record.  Replicated terminals (``cluster-terminal``) and
the fold of a peer finishing your job (``peer-terminal``) prove
*knowledge*, never execution, and are tracked separately — so a job
reclaimed from a dead daemon and re-run by a survivor shows exactly one
execution, on the survivor, no matter how widely the result was
gossiped.

Two strictness levels, matching the two chaos drills:

* **strict exactly-once** (single daemon): every accepted job has
  exactly one executed terminal record, full stop.
* **effectively-once** (cluster): every accepted job has at least one
  executed terminal somewhere, and all executed terminals *agree* —
  same state, and for ``done`` the same cycles/ipc.  Agreeing duplicates
  are counted and reported, not failed: a client taking over a
  presumed-dead owner's job races its reclaim by design, and the
  fingerprint cache guarantees both executions are bitwise-identical.

Run it standalone against one or more state dirs::

    repro-audit .repro-cluster-chaos/state-*
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from ..design.journal import replay_journal
from .protocol import DONE, TERMINAL

#: Journal record types that mark a *local* execution reaching terminal.
EXECUTED_KINDS = ("done", "failed", "quarantined")

#: Record types that replicate someone else's terminal (never execution).
REPLICA_KINDS = ("cluster-terminal", "peer-terminal")


@dataclass
class JobAudit:
    """Everything every journal said about one job id."""

    id: str
    #: State-dir names that journaled their own ``submit`` for this id.
    accepted_in: list[str] = field(default_factory=list)
    #: ``(dir, state, cycles, ipc)`` per locally-executed terminal record.
    executed: list[tuple[str, str, object, object]] = field(
        default_factory=list)
    #: ``(dir, record-type, state)`` per replicated terminal record.
    replicated: list[tuple[str, str, str]] = field(default_factory=list)
    #: Source daemons this id was reclaimed from (``adopted_from``).
    adopted_from: list[str] = field(default_factory=list)
    #: Dispatch ordinals journaled with each accept (fault anchoring).
    ordinals: list[object] = field(default_factory=list)

    @property
    def states(self) -> set[str]:
        return {state for _, state, _, _ in self.executed}

    @property
    def missing(self) -> bool:
        """Accepted somewhere, executed nowhere: a lost job."""
        return bool(self.accepted_in) and not self.executed

    @property
    def conflicting(self) -> bool:
        """Executed terminals that disagree — different states, or the
        same ``done`` with different numbers (a determinism breach)."""
        if len(self.states) > 1:
            return True
        if self.states == {DONE}:
            results = {(cycles, ipc)
                       for _, _, cycles, ipc in self.executed}
            return len(results) > 1
        return False

    @property
    def duplicates(self) -> int:
        """Executed terminals beyond the first (agreeing or not)."""
        return max(len(self.executed) - 1, 0)


@dataclass
class AuditReport:
    """The cluster-wide fold of every journal under the audited dirs."""

    dirs: list[str] = field(default_factory=list)
    jobs: dict[str, JobAudit] = field(default_factory=dict)
    #: State-dir name -> set of journaled event kinds (events.jsonl).
    events: dict[str, set[str]] = field(default_factory=dict)
    crashes: int = 0
    problems: list[str] = field(default_factory=list)

    @property
    def missing(self) -> list[str]:
        return sorted(j.id for j in self.jobs.values() if j.missing)

    @property
    def conflicting(self) -> list[str]:
        return sorted(j.id for j in self.jobs.values() if j.conflicting)

    @property
    def duplicates(self) -> int:
        return sum(j.duplicates for j in self.jobs.values())

    @property
    def adopted(self) -> list[str]:
        return sorted(j.id for j in self.jobs.values() if j.adopted_from)

    @property
    def effectively_once(self) -> bool:
        """Cluster bar: nothing lost, nothing disagreeing."""
        return not self.missing and not self.conflicting \
            and not self.problems

    @property
    def strict_exactly_once(self) -> bool:
        """Single-daemon bar: effectively-once and zero duplicates."""
        return self.effectively_once and self.duplicates == 0

    def event_kinds(self) -> set[str]:
        """The union of event kinds across every audited daemon."""
        out: set[str] = set()
        for kinds in self.events.values():
            out |= kinds
        return out

    def states_of(self, job_id: str) -> set[str]:
        job = self.jobs.get(job_id)
        return job.states if job is not None else set()

    def executed_dirs(self, job_id: str) -> list[str]:
        job = self.jobs.get(job_id)
        if job is None:
            return []
        return sorted({name for name, _, _, _ in job.executed})

    def summary_line(self, *, strict: bool = False) -> str:
        ok = self.strict_exactly_once if strict else self.effectively_once
        verdict = "OK" if ok else "FAILED"
        bar = "exactly-once" if strict else "effectively-once"
        text = (f"audit {verdict} ({bar}): {len(self.dirs)} journal(s), "
                f"{len(self.jobs)} job(s), {len(self.missing)} missing, "
                f"{len(self.conflicting)} conflicting, "
                f"{self.duplicates} duplicate execution(s), "
                f"{len(self.adopted)} adopted, {self.crashes} crash(es)")
        if self.problems:
            text += f"; {self.problems[0]}"
        return text


def audit_state_dirs(dirs: Sequence[str | Path]) -> AuditReport:
    """Fold every ``journal.jsonl``/``events.jsonl`` under ``dirs``.

    Works on live *or* stopped daemons (journal replay tolerates a torn
    tail), but the exactly-once verdict only means anything once every
    daemon has drained or died.
    """
    report = AuditReport()
    for raw in dirs:
        directory = Path(raw)
        name = directory.name or str(directory)
        report.dirs.append(name)
        journal = directory / "journal.jsonl"
        if not journal.exists():
            report.problems.append(f"{name}: no journal.jsonl")
            continue
        for record in replay_journal(journal).records:
            kind = record.get("type")
            rid = record.get("id")
            if kind == "crash":
                report.crashes += 1
                continue
            if not isinstance(rid, str) or not rid:
                continue
            job = report.jobs.setdefault(rid, JobAudit(id=rid))
            if kind == "submit":
                job.accepted_in.append(name)
                job.ordinals.append(record.get("ordinal"))
                source = record.get("adopted_from")
                if source:
                    job.adopted_from.append(str(source))
            elif kind in EXECUTED_KINDS:
                state = record.get("state") or kind
                if state not in TERMINAL:
                    report.problems.append(
                        f"{name}: terminal record for {rid} carries "
                        f"non-terminal state {state!r}")
                    continue
                job.executed.append((name, state, record.get("cycles"),
                                     record.get("ipc")))
            elif kind in REPLICA_KINDS:
                job.replicated.append(
                    (name, kind, record.get("state") or "?"))
        events = directory / "events.jsonl"
        kinds: set[str] = set()
        if events.exists():
            kinds = {record.get("kind")
                     for record in replay_journal(events).records
                     if record.get("type") == "event"}
            kinds.discard(None)
        report.events[name] = kinds
    return report


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-audit",
        description="Offline exactly-once audit over repro-serve state "
                    "dirs: fold every journal, find lost, conflicting "
                    "and duplicated jobs.")
    parser.add_argument("dirs", nargs="+", metavar="STATE_DIR",
                        help="daemon state directories to audit together")
    parser.add_argument("--strict", action="store_true",
                        help="fail on agreeing duplicate executions too "
                             "(single-daemon exactly-once bar)")
    parser.add_argument("--verbose", action="store_true",
                        help="print one line per audited job")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    report = audit_state_dirs(args.dirs)
    print(report.summary_line(strict=args.strict))
    for problem in report.problems:
        print(f"  problem: {problem}", file=sys.stderr)
    for rid in report.missing:
        print(f"  missing: {rid} accepted in "
              f"{report.jobs[rid].accepted_in} but never executed",
              file=sys.stderr)
    for rid in report.conflicting:
        job = report.jobs[rid]
        print(f"  conflict: {rid} executed as {sorted(job.states)} "
              f"in {report.executed_dirs(rid)}", file=sys.stderr)
    if args.verbose:
        for rid in sorted(report.jobs):
            job = report.jobs[rid]
            where = report.executed_dirs(rid) or ["-"]
            flags = []
            if job.adopted_from:
                flags.append(f"adopted-from={job.adopted_from}")
            if job.duplicates:
                flags.append(f"dups={job.duplicates}")
            print(f"  {rid}: {sorted(job.states) or ['pending']} "
                  f"on {where} {' '.join(flags)}".rstrip())
    ok = (report.strict_exactly_once if args.strict
          else report.effectively_once)
    return 0 if ok else 1


if __name__ == "__main__":   # pragma: no cover - console entry
    raise SystemExit(main())
