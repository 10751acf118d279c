"""Durable, shardable campaigns: a design sweep that survives anything.

A :class:`Campaign` is one compiled design bound to a store directory
(``.repro-campaigns/<name>-<digest12>/``):

* ``meta.json`` — what the campaign *is*: design digest, compile
  environment, one static record per cell (label, job payload,
  fingerprint).  Written exactly once, through
  :func:`repro.harness.files.write_atomic`.
* ``journal.jsonl`` and ``snapshot.json`` — what *happened*, kept by a
  :class:`~repro.design.store.JobStore`: ``claim`` / ``heartbeat`` /
  ``release`` / ``done`` / ``failed`` / ``exhausted`` records keyed by
  ``id``, and the snapshot compaction leaves behind.

Each cell is a job declared to the store with id ``job_id(digest,
index)``, the id ``repro-submit`` gives the same cell.  Workers claim
cells by lease, so ``repro-exp --design F --shard`` processes on one
host or several sharing a filesystem drain one campaign together, a
crashed worker's leases expire and its cells are reclaimed, and a
double completion (two workers racing one cell) is counted, with
bitwise-identical results either way.

The digest is part of the directory name, so re-running the same design
file against the same environment lands on the same store and resumes,
while *any* change to factors, filters, overrides, ordering or
environment starts a fresh campaign next door.  A store this code cannot
read (a corrupt meta, or an older format: format-2 ``meta.json`` with
cell-keyed records, format-1 ``manifest.json``) is set aside as
``.corrupt`` and rebuilt from the design; its done cells replay from the
result cache.  Opening or loading a store sweeps the ``.tmp-*`` strays a
killed writer left; the write, quarantine and sweep mechanics are
:mod:`repro.harness.files`.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from ..harness.cache import ResultCache
from ..harness.checkpoints import CheckpointPlan
from ..harness.engine import (DEFAULT_RETRIES, BatchReport, rebased_events,
                              run_batch)
from ..harness.faults import FaultPlan
from ..harness.files import quarantine, sweep, write_atomic
from ..harness.jobs import JobError, SimJob
from .design import Design, DesignError
from .env import DesignEnv
from .journal import JOURNAL_NAME, SNAPSHOT_NAME
from .store import (CLAIMED, DEFAULT_LEASE_TTL, DONE, EXHAUSTED, FAILED,
                    PENDING, TTL_JITTER_FRAC, Job, JobStore,
                    default_worker_id, job_id, worker_ttl_jitter)

#: Where campaign stores live by default (git-ignorable, like the
#: result cache and checkpoint store).
DEFAULT_CAMPAIGN_ROOT = ".repro-campaigns"

#: On-disk meta format version (2 keyed journal records by cell index,
#: 1 was the rewrite-the-world ``manifest.json``).
_META_FORMAT = 3

_META = "meta.json"

#: A format-1 store's only file.
_MANIFEST = "manifest.json"

#: Auto-compact once the journal accumulates this many records.
DEFAULT_COMPACT_EVERY = 512


class CampaignError(RuntimeError):
    """A campaign store is unusable (corrupt, wrong format, no meta)."""


@dataclass
class CampaignReport:
    """What one :meth:`Campaign.run` call did."""

    executed: int = 0              # cells dispatched this run
    resumed: int = 0               # cells already done at run start
    failed: int = 0                # cells that ended failed (retryable)
    exhausted: int = 0             # cells past --max-retries (terminal)
    #: Cells another live worker beat us to (shard contention).
    lease_conflicts: int = 0
    #: Expired leases this worker reclaimed.
    leases_reclaimed: int = 0
    #: Done records beyond the first per cell (double completions).
    duplicate_done: int = 0
    journal_appends: int = 0
    journal_append_errors: int = 0
    batches: list[BatchReport] = field(default_factory=list)
    #: Campaign-level trace events ({"kind", "t", "payload"}) — journal,
    #: lease and compaction activity in the engine's wall-clock lane,
    #: ``t`` in seconds since ``started`` (a ``time.monotonic()`` reading).
    events: list[dict[str, Any]] = field(default_factory=list)
    started: float = field(default_factory=time.monotonic)

    @property
    def ok(self) -> bool:
        return self.failed == 0 and self.exhausted == 0

    @property
    def batch(self) -> BatchReport | None:
        """The last engine batch (None when nothing was dispatched)."""
        return self.batches[-1] if self.batches else None

    def engine_events(self) -> list[dict[str, Any]]:
        """Campaign + batch events merged on one wall-clock time base."""
        merged = self.events + rebased_events(self.batches, self.started)
        merged.sort(key=lambda event: event["t"])
        return merged

    @property
    def checkpoint_corrupt(self) -> int:
        return sum(batch.checkpoint_corrupt for batch in self.batches)


class _Heartbeat(threading.Thread):
    """Appends heartbeat records while the worker runs (lease keep-alive).

    One thread per :meth:`Campaign.run` invocation, started before the
    first claim and stopped — *joined*, never leaked — in a ``finally``
    that covers claims and batches alike, so a worker that raises while
    claiming (a corrupt store, an injected fault) or dies mid-cell does
    not leave a zombie thread appending heartbeats for leases it no
    longer defends.
    """

    def __init__(self, store: JobStore, interval: float) -> None:
        super().__init__(name="campaign-heartbeat", daemon=True)
        self.store = store
        self.interval = interval
        self._halt = threading.Event()

    def run(self) -> None:
        while not self._halt.wait(self.interval):
            self.store.append("heartbeat")

    def stop(self) -> None:
        self._halt.set()
        if self.is_alive() or self.ident is not None:
            self.join(timeout=5.0)


@dataclass
class Campaign:
    """A compiled design bound to its durable on-disk store."""

    name: str
    digest: str
    path: Path
    env: DesignEnv
    #: One declared store job per design cell, in cell-index order.
    cells: list[Job] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._bind("-", None)

    def _bind(self, worker: str, faults: FaultPlan | None) -> JobStore:
        """A store handle appending as ``worker``, folded from disk."""
        self.store = JobStore(self.path, key=self.digest, worker=worker,
                              faults=faults)
        self.store.declare(self.cells)
        return self.store.refresh()

    # ------------------------------------------------------------------ #
    # opening / loading
    # ------------------------------------------------------------------ #
    @classmethod
    def open(cls, design: Design, env: DesignEnv | None = None, *,
             root: str | Path = DEFAULT_CAMPAIGN_ROOT) -> "Campaign":
        """Compile ``design`` under ``env`` and bind the on-disk store.

        A store from a previous (possibly interrupted, possibly still
        *running* elsewhere) campaign of the same design+environment is
        loaded, journal state and all; any other design lands in its
        own directory.  A store with a corrupt or older-format meta is
        set aside as ``.corrupt`` and rebuilt from the design.  A cell
        whose job no worker could run (:meth:`SimJob.check
        <repro.harness.jobs.SimJob.check>`) raises :class:`JobError`
        before anything is written.
        """
        env = env if env is not None else DesignEnv()
        compiled = design.compile(env)
        if not compiled:
            raise DesignError(f"design {design.name!r} compiled to zero "
                              f"cells; nothing to run")
        for cc in compiled:
            try:
                cc.job.check()
            except JobError as error:
                raise JobError(f"cell {cc.label!r}: {error}") from None
        digest = design.digest(env)
        path = Path(root) / f"{design.name}-{digest[:12]}"
        sweep(path, ".tmp-*")
        unusable = (path / _MANIFEST).is_file()
        if (path / _META).is_file():
            try:
                campaign = cls.load(path)
            except CampaignError:
                # Set the journal aside only with a meta load() has
                # quarantined, not one it merely could not read.
                unusable = not (path / _META).exists()
            else:
                if campaign.digest != digest:   # pragma: no cover
                    raise CampaignError(
                        f"store at {path} records digest "
                        f"{campaign.digest[:12]}, expected {digest[:12]}")
                return campaign
        if unusable:
            for name in (_MANIFEST, JOURNAL_NAME, SNAPSHOT_NAME):
                quarantine(path / name)
        cells = [Job(job_id(digest, cc.index), cc.job.fingerprint(),
                     cc.job.to_payload(), cc.index, label=cc.label)
                 for cc in compiled]
        campaign = cls(name=design.name, digest=digest, path=path,
                       env=env, cells=cells)
        campaign._write_meta()
        return campaign

    @classmethod
    def load(cls, path: str | Path) -> "Campaign":
        """Bind an existing store (meta + journal replay).

        Stray ``.tmp-*`` files (a process killed between write and
        rename) are swept; an unparseable or older-format meta is
        quarantined as ``.corrupt`` before :class:`CampaignError` is
        raised, so the bad file can never wedge the store (``open()``
        then rebuilds it from the design).
        """
        path = Path(path)
        sweep(path, ".tmp-*")
        meta = path / _META
        if not meta.is_file():
            raise CampaignError(f"no campaign store under {path}")
        data = _read_meta(meta)
        digest = data["digest"]
        return cls(name=data["name"], digest=digest, path=path,
                   env=DesignEnv.from_payload(data["env"]),
                   cells=[Job(job_id(digest, cell["index"]),
                              cell["fingerprint"], cell["job"],
                              cell["index"], label=cell["label"])
                          for cell in data["cells"]])

    def _write_meta(self) -> None:
        """Atomic one-time meta write; raises on failure."""
        payload = {
            "format": _META_FORMAT,
            "name": self.name,
            "digest": self.digest,
            "env": self.env.to_payload(),
            "written": time.time(),
            "cells": [{"index": cell.index, "label": cell.label,
                       "fingerprint": cell.fingerprint, "job": cell.job}
                      for cell in self.cells],
        }
        write_atomic(self.path / _META, json.dumps(payload, indent=1))

    # ------------------------------------------------------------------ #
    # state
    # ------------------------------------------------------------------ #
    def counts(self) -> dict[str, int]:
        out = {PENDING: 0, CLAIMED: 0, DONE: 0, FAILED: 0, EXHAUSTED: 0}
        for cell in self.cells:
            out[cell.status] = out.get(cell.status, 0) + 1
        return out

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def run(self, *, workers: int = 1, cache: ResultCache | None = None,
            retries: int = DEFAULT_RETRIES, timeout: float | None = None,
            fail_fast: bool = False, faults: FaultPlan | None = None,
            sanitize: bool | None = None,
            checkpoints: CheckpointPlan | None = None,
            progress=None, worker_id: str | None = None,
            lease_ttl: float = DEFAULT_LEASE_TTL,
            max_retries: int | None = None,
            shard: bool = False) -> CampaignReport:
        """Drain every claimable cell; return what this worker did.

        Claim/execute/journal in a loop: each iteration leases a set of
        cells (everything claimable, or one per worker in ``shard`` mode
        so concurrent processes interleave), runs them as one engine
        batch with heartbeats keeping the leases alive, and journals each
        outcome the moment the engine records it.  A crash at any point
        loses nothing: completed results are in the result cache,
        journaled outcomes replay on the next invocation, and the crashed
        worker's leases expire after ``lease_ttl`` seconds so surviving
        (or restarted) workers reclaim its cells.

        ``max_retries`` caps per-cell failures across invocations: a
        cell failing ``max_retries + 1`` times is journaled
        ``exhausted`` and never claimed again.  Within one invocation a
        failed cell is not re-claimed (retry happens on resume).  The
        journal is compacted once it holds :data:`DEFAULT_COMPACT_EVERY`
        records.
        """
        worker_id = worker_id or default_worker_id()
        store = self._bind(worker_id, faults)
        report = CampaignReport()

        def event(kind: str, **payload: Any) -> None:
            report.events.append({"kind": kind,
                                  "t": time.monotonic() - report.started,
                                  "payload": payload})

        if store.replay_corrupt or store.replay_torn:
            event("journal.damage", corrupt=store.replay_corrupt,
                  torn_tail=store.replay_torn)
        report.resumed = sum(1 for cell in self.cells if cell.state == DONE)
        exhausted_before = {cell.id for cell in self.cells
                            if cell.state == EXHAUSTED}
        stall = faults is not None and faults.stall_heartbeats()
        failed_this_run: set[str] = set()

        # Deterministic per-worker lease jitter: spread expiry/heartbeat
        # clocks so N workers never stampede expired leases in lockstep.
        lease_ttl = lease_ttl * (1.0 + TTL_JITTER_FRAC
                                 * worker_ttl_jitter(worker_id))

        # One heartbeat thread for the whole invocation, covering claims
        # as well as batches, torn down in the finally below no matter
        # where the loop raises — a heartbeat must never outlive its run.
        heart = None
        if not stall:
            heart = _Heartbeat(store, interval=max(lease_ttl / 3.0, 0.2))
            heart.start()
        elif faults is not None:
            event("heartbeat.stalled", worker=worker_id)

        try:
            while True:
                self._note_exhausted(max_retries, event)
                todo = store.claimable(worker=worker_id,
                                       max_retries=max_retries,
                                       exclude=failed_this_run)
                if not todo:
                    break
                if shard:
                    todo = todo[:max(workers, 1)]
                for cell in todo:
                    if cell.claims:
                        report.leases_reclaimed += 1
                        event("lease.expired", cell=cell.index,
                              holder=cell.claims[0].get("worker"))
                claimed, lost = store.claim(todo, lease_ttl)
                for cell, holder in lost:
                    report.lease_conflicts += 1
                    event("lease.conflict", cell=cell.index, winner=holder)
                for cell in claimed:
                    event("lease.claim", cell=cell.index, ttl=lease_ttl)
                if not claimed:
                    continue

                def on_outcome(outcome, _cells=claimed):
                    cell = _cells[outcome.index]
                    if outcome.result is not None:
                        store.append("done", id=cell.id,
                                     fingerprint=cell.fingerprint,
                                     cycles=outcome.result.cycles,
                                     ipc=outcome.result.ipc)
                        event("cell.done", cell=cell.index,
                              status=outcome.status)
                    elif outcome.status == "skipped":
                        store.append("release", id=cell.id)
                        event("lease.released", cell=cell.index)
                    else:
                        error = outcome.error or outcome.status
                        store.append(
                            "failed", id=cell.id,
                            fingerprint=cell.fingerprint,
                            error=(error.splitlines()[0][:200] if error
                                   else None))
                        event("cell.failed", cell=cell.index,
                              status=outcome.status)

                batch = run_batch([SimJob.from_payload(cell.job)
                                   for cell in claimed],
                                  workers=workers, cache=cache,
                                  retries=retries, timeout=timeout,
                                  fail_fast=fail_fast, faults=faults,
                                  sanitize=sanitize, checkpoints=checkpoints,
                                  progress=progress, on_outcome=on_outcome)
                report.batches.append(batch)
                report.executed += len(claimed)
                for outcome in batch.outcomes:
                    if outcome.result is None \
                            and outcome.status != "skipped":
                        failed_this_run.add(claimed[outcome.index].id)
                store.refresh()
                records = store.journal_records
                if records >= DEFAULT_COMPACT_EVERY and store.compact():
                    event("journal.compact", records=records)
                if fail_fast and failed_this_run:
                    break
        finally:
            if heart is not None:
                heart.stop()

        self._note_exhausted(max_retries, event)
        store.refresh()
        snapshot = store.close()
        if snapshot is not None:
            # Degraded durability: the journal lost records (disk full,
            # injected fail-append); the store persisted its folded state
            # as a snapshot so the next invocation still resumes.
            event("campaign.snapshot_fallback", ok=snapshot,
                  lost_appends=store.journal.append_errors)
        exhausted = {cell.id for cell in self.cells
                     if cell.state == EXHAUSTED}
        report.exhausted = len(exhausted)
        report.failed = len(failed_this_run - (exhausted - exhausted_before))
        report.duplicate_done = store.duplicate_done
        report.journal_appends = store.journal.appends
        report.journal_append_errors = store.journal.append_errors
        return report

    def _note_exhausted(self, max_retries: int | None, event) -> None:
        """Journal failed cells whose retry budget ran out."""
        if max_retries is None:
            return
        for cell in self.cells:
            if cell.state == FAILED and cell.attempts > max_retries:
                self.store.append("exhausted", id=cell.id,
                                  fingerprint=cell.fingerprint,
                                  attempts=cell.attempts)
                event("cell.exhausted", cell=cell.index,
                      attempts=cell.attempts)


# --------------------------------------------------------------------------- #
# store-file helpers
# --------------------------------------------------------------------------- #

def _read_meta(path: Path) -> dict:
    """Parse the meta file; quarantine-and-raise when unusable."""
    try:
        data = json.loads(path.read_text())
        if data.get("format") != _META_FORMAT:
            raise ValueError(f"format {data.get('format')!r}, "
                             f"expected {_META_FORMAT}")
        if not isinstance(data.get("cells"), list):
            raise ValueError("no cell list")
        return data
    except OSError as error:
        raise CampaignError(f"unreadable campaign store file {path}: "
                            f"{error}") from None
    except (ValueError, KeyError, TypeError, AttributeError) as error:
        quarantine(path)
        raise CampaignError(f"corrupt campaign store file {path} "
                            f"(quarantined as .corrupt): {error}") from None
