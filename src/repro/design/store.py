"""One durable job store: a journal folded into id-keyed job state.

A :class:`JobStore` owns one store directory's ``journal.jsonl``
(:mod:`repro.design.journal`) and ``snapshot.json`` and is the one place
journal records become job state.  It has two owners: a campaign
(:mod:`repro.design.campaign`) declares its design cells as jobs up
front, with ids :func:`job_id`, and its ``--shard`` workers claim them
by lease; the ``repro-serve`` daemon introduces its jobs with ``submit``
records and, when clustered, keeps its peers' announced jobs here too,
as replicas (:attr:`Job.owner`).  Appends and folds share one lock,
because a campaign's heartbeat thread and its batch callbacks append
concurrently.

**The fold.**  Records replay in file order, keyed by ``id``:

* ``submit`` introduces a job; a replayed duplicate changes nothing.
  A ``submit`` for a replica adopts it: the job becomes this store's
  own (its owner cleared) at the submit's ordinal.
* ``cluster-job`` introduces a replica: a job a cluster peer accepted,
  owned by that peer.  It takes no submission ordinal.
* ``claim`` / ``release`` / ``heartbeat`` are leases.  Every record
  refreshes its worker's liveness, a claim is live while its worker's
  newest record (or the claim itself) is younger than the claim's TTL
  (:func:`lease_alive`), and the first live claim in file order owns the
  job.  Appends interleave whole records, so file order is a total order
  and N workers sharing a filesystem arbitrate without a coordinator; a
  worker whose lease expired loses the job to whoever reclaims it.
* ``done``: the first one wins over any other state.  Later ones are
  counted in ``duplicate_done``, never an error: two workers that raced
  a job ran the same fingerprint, so their results are bitwise equal.
* ``failed`` costs one attempt and can be retried (a campaign re-claims
  the job on resume; the daemon, which retried in band, treats it as
  final).  ``quarantined`` and ``exhausted`` are final.
* ``crash`` counts one worker death against the job (the daemon's
  circuit-breaker memory).
* ``peer-terminal`` (a peer finished one of this store's jobs) and
  ``cluster-terminal`` (a replica's owner finished it) fold as the state
  they name.

A terminal record whose fingerprint disagrees with its job's, and a
record naming an unknown id, is counted in ``ignored_records``; other
record kinds are skipped.

**The snapshot.**  ``snapshot.json`` holds every job's folded state, the
workers' liveness and the journal prefix it covers: the record count and
the last covered record's ``crc``.  Loading skips exactly that prefix
when the journal still starts with it, and folds every record when it
does not (the journal was truncated), so no record is folded twice.
:meth:`JobStore.compact` writes the snapshot and then truncates the
journal; :meth:`JobStore.close` writes it when the journal lost appends.
"""

from __future__ import annotations

import hashlib
import os
import socket
import threading
import time
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable

from ..harness.files import write_atomic
from .journal import (JOURNAL_NAME, Journal, load_snapshot, replay_journal,
                      write_snapshot)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..harness.faults import FaultPlan

#: Job states; the terminal record kinds carry the same names.
#: ``claimed`` is presentational: a pending job with a live lease.
PENDING = "pending"
CLAIMED = "claimed"
DONE = "done"
FAILED = "failed"
QUARANTINED = "quarantined"
EXHAUSTED = "exhausted"

#: States no later record but a ``done`` changes.
FINAL = (DONE, QUARANTINED, EXHAUSTED)

#: Record kinds the fold reads (``heartbeat`` only refreshes liveness).
_KINDS = ("submit", "cluster-job", "claim", "release", "crash", DONE,
          FAILED, QUARANTINED, EXHAUSTED)

#: Records that carry another node's terminal in their ``state``.
_RELAYED = ("peer-terminal", "cluster-terminal")

#: Default lease time-to-live in seconds (heartbeats run at ttl/3).
DEFAULT_LEASE_TTL = 30.0

#: Per-worker lease-TTL jitter span, as a fraction of the base TTL.
#: Each worker's effective TTL is ``ttl * (1 + frac * jitter)`` with
#: ``jitter`` deterministic in [0, 1) from the worker id, so N workers
#: whose leases all expired in one crash do not stampede the reclaim in
#: lockstep: their expiry (and heartbeat) clocks are spread over a
#: quarter-TTL window instead of firing at the same instant.
TTL_JITTER_FRAC = 0.25

#: The compaction lock, and the age past which it is a crashed
#: compactor's and gets broken.
COMPACT_LOCK = "compact.lock"
_LOCK_STALE_SECONDS = 60.0


def job_id(digest: str, index: int) -> str:
    """The deterministic id of one design cell, in a campaign store and
    on ``repro-submit``'s wire alike.

    Digest-prefixed so ids from different designs can never collide,
    and stable across restarts so resubmission is idempotent.
    """
    return f"{digest[:12]}:{index}"


def default_worker_id() -> str:
    """Host + pid: unique among workers sharing a filesystem."""
    return f"{socket.gethostname()}-{os.getpid()}"


def worker_ttl_jitter(worker_id: str) -> float:
    """A deterministic jitter fraction in ``[0, 1)`` for one worker id.

    Hash-derived, not random: the same worker always computes the same
    effective TTL, so lease arbitration stays reproducible while
    *different* workers are still decorrelated.
    """
    digest = hashlib.sha256(worker_id.encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big") / 2**32


def lease_alive(claim: dict, beats: dict[str, float], now: float) -> bool:
    """Is this lease live: its worker's newest record (or the claim
    itself) within the claim's TTL?

    The one liveness rule of the system: job claims in a store, and the
    cluster's peer leases (:mod:`repro.service.cluster`), which hold
    ``{"worker": node, "t": boot_time, "ttl": seconds}`` claims against
    node-level gossip contacts.
    """
    seen = max(beats.get(claim.get("worker"), 0.0), float(claim.get("t", 0.0)))
    return seen + float(claim.get("ttl", DEFAULT_LEASE_TTL)) > now


class Job:
    """One job: its identity and its folded state."""

    __slots__ = ("id", "fingerprint", "job", "index", "tenant", "label",
                 "owner", "state", "status", "attempts", "crashes", "cycles",
                 "ipc", "error", "claims", "duplicate_done")

    #: The folded half, as a snapshot stores it.
    FOLDED = ("state", "attempts", "crashes", "cycles", "ipc", "error",
              "claims", "duplicate_done")

    def __init__(self, id: str, fingerprint: str, job: dict[str, Any],
                 index: int = 0, *, tenant: str = "-",
                 label: str = "", owner: str = "") -> None:
        self.id = id
        self.fingerprint = fingerprint
        self.job = job            # SimJob.to_payload rendering
        #: A campaign's cell index; a daemon's submission ordinal, which
        #: addresses the job's dispatch faults.
        self.index = index
        self.tenant = tenant      # daemon jobs: the admitting tenant
        self.label = label        # campaign jobs: the design cell label
        #: ``""`` for this store's own jobs; for a replica, the address
        #: of the cluster peer that accepted it.
        self.owner = owner
        self.reset()

    def reset(self) -> None:
        self.state = PENDING
        #: ``state`` with a live lease shown as ``claimed``, as of the
        #: store's last refresh.
        self.status = PENDING
        self.attempts = 0         # failed records
        self.crashes = 0          # crash records
        self.cycles: int | None = None
        self.ipc: float | None = None
        self.error: str | None = None
        #: Claim records still standing, in file order:
        #: {worker, nonce, t, ttl}.
        self.claims: list[dict] = []
        self.duplicate_done = 0   # done records after the first

    def to_state(self) -> dict[str, Any]:
        return {"id": self.id, "fingerprint": self.fingerprint,
                "job": self.job, "index": self.index, "tenant": self.tenant,
                "label": self.label, "owner": self.owner,
                **{name: getattr(self, name) for name in self.FOLDED}}


class JobStore:
    """A store directory's journal handle and the fold of its records.

    ``key`` binds the snapshot to its owner (a campaign passes its
    design digest), so a snapshot from another store is quarantined,
    never trusted.  ``worker`` and ``faults`` go to the append handle
    (:class:`~repro.design.journal.Journal`).
    """

    def __init__(self, directory: str | Path, *, key: str = "",
                 worker: str = "-",
                 faults: "FaultPlan | None" = None) -> None:
        self.path = Path(directory)
        self.key = key
        self.journal = Journal(self.path / JOURNAL_NAME, worker=worker,
                               faults=faults)
        self.jobs: dict[str, Job] = {}
        self.order: list[str] = []        # declaration/submission order
        #: Worker id -> timestamp of its newest record (liveness).
        self.beats: dict[str, float] = {}
        self.next_index = 0
        self.ignored_records = 0
        #: Replay damage seen by the last refresh.
        self.replay_corrupt = 0
        self.replay_torn = False
        self._declared: list[Job] = []
        #: The journal prefix the folded state covers: record count and
        #: the last record's crc.
        self._covered: tuple[int, str | None] = (0, None)
        self._nonce = 0
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # folding
    # ------------------------------------------------------------------ #
    def declare(self, jobs: Iterable[Job]) -> None:
        """Jobs that exist before any record: a campaign's cells."""
        for job in jobs:
            self._declared.append(job)
            self._add(job)

    def _add(self, job: Job) -> None:
        self.jobs[job.id] = job
        self.order.append(job.id)
        if not job.owner:
            self.next_index = max(self.next_index, job.index + 1)

    def ordered(self) -> list[Job]:
        return [self.jobs[job_id] for job_id in self.order]

    @property
    def duplicate_done(self) -> int:
        return sum(job.duplicate_done for job in self.jobs.values())

    @property
    def journal_records(self) -> int:
        """Journal records the folded state covers."""
        return self._covered[0]

    def refresh(self) -> "JobStore":
        """Re-fold everything durable: snapshot, journal, lost appends."""
        with self._lock:
            self._reload()
        return self

    def _reload(self) -> None:
        snapshot = load_snapshot(self.path, self.key)
        try:
            count, crc = self._restore(snapshot)
        except (KeyError, TypeError, ValueError, AttributeError):
            count, crc = self._restore({})   # malformed: never trusted
        replay = replay_journal(self.path / JOURNAL_NAME)
        records = replay.records
        skip = count if 0 < count <= len(records) \
            and records[count - 1].get("crc") == crc else 0
        for record in records[skip:]:
            self._fold(record)
        for record in self.journal.unpersisted:
            self._fold(record)
        self._covered = (len(records),
                         records[-1]["crc"] if records else None)
        self.replay_corrupt = replay.corrupt_records
        self.replay_torn = replay.torn_tail
        now = time.time()
        for job in self.jobs.values():
            job.status = CLAIMED if job.state == PENDING \
                and self.winner(job, now) is not None else job.state

    def _restore(self, state: dict[str, Any]) -> tuple[int, str | None]:
        """Start over from the declared jobs and a snapshot's folded
        state; return the journal prefix it covers."""
        self.jobs, self.order, self.beats = {}, [], {}
        self.next_index = self.ignored_records = 0
        for job in self._declared:
            job.reset()
            self._add(job)
        if not state:
            return 0, None
        self.beats.update(state["beats"])
        self.ignored_records = int(state["ignored"])
        for data in state["jobs"]:
            job = self.jobs.get(data["id"])
            if job is None:
                job = Job(data["id"], data["fingerprint"], data["job"],
                          data["index"], tenant=data["tenant"],
                          label=data["label"], owner=data.get("owner", ""))
                self._add(job)
            for name in Job.FOLDED:
                setattr(job, name, data[name])
        covers = state["covers"]
        return int(covers["records"]), covers["crc"]

    def _fold(self, record: dict[str, Any]) -> None:
        worker = record.get("worker")
        if isinstance(worker, str):
            t = float(record.get("t", 0.0))
            if t > self.beats.get(worker, 0.0):
                self.beats[worker] = t
        kind = record.get("type")
        if kind in _RELAYED:
            kind = record.get("state")
            if kind not in (DONE, FAILED, QUARANTINED):
                return
        elif kind not in _KINDS:
            return
        key = record.get("id")
        job = self.jobs.get(key)
        if kind in ("submit", "cluster-job"):
            owner = (str(record.get("owner") or "?")
                     if kind == "cluster-job" else "")
            ordinal = 0 if owner else int(record.get("ordinal") or 0)
            if job is None and isinstance(key, str):
                self._add(Job(key, record.get("fingerprint", ""),
                              record.get("job") or {}, ordinal,
                              tenant=record.get("tenant", "-"),
                              owner=owner))
            elif job is not None and job.owner and not owner:
                # A submit for a replica: this store adopts it.
                job.owner, job.index = "", ordinal
                self.next_index = max(self.next_index, ordinal + 1)
            return
        if job is None:
            self.ignored_records += 1
            return
        if kind == "claim":
            if job.state not in FINAL:
                job.claims.append({"worker": worker,
                                   "nonce": record.get("nonce"),
                                   "t": record.get("t", 0.0),
                                   "ttl": record.get("ttl",
                                                     DEFAULT_LEASE_TTL)})
        elif kind == "release":
            nonce = record.get("nonce")
            job.claims = [claim for claim in job.claims
                          if not (claim["worker"] == worker
                                  and nonce in (None, claim["nonce"]))]
        elif kind == "crash":
            job.crashes += 1
        elif record.get("fingerprint") not in (None, job.fingerprint):
            self.ignored_records += 1
        elif kind == DONE:
            if job.state == DONE:
                job.duplicate_done += 1
                return
            job.state = DONE
            job.cycles = record.get("cycles")
            job.ipc = record.get("ipc")
            job.error = None
            job.claims = []
        elif job.state not in FINAL:
            job.state = kind
            job.error = record.get("error")
            if kind == FAILED:
                job.attempts += 1
                job.claims = [claim for claim in job.claims
                              if claim["worker"] != worker]
            else:
                job.claims = []

    def append(self, kind: str, **payload: Any) -> tuple[dict, bool]:
        """Journal one record and fold it; return ``(record, persisted)``."""
        with self._lock:
            record, persisted = self.journal.append(kind, **payload)
            self._fold(record)
            if persisted:
                self._covered = (self._covered[0] + 1, record["crc"])
        return record, persisted

    # ------------------------------------------------------------------ #
    # leases
    # ------------------------------------------------------------------ #
    def winner(self, job: Job, now: float) -> dict | None:
        """The live claim that owns ``job``: first in file order, or None."""
        for claim in job.claims:
            if lease_alive(claim, self.beats, now):
                return claim
        return None

    def claimable(self, *, worker: str, max_retries: int | None = None,
                  exclude: Iterable[str] = ()) -> list[Job]:
        """Jobs ``worker`` may claim right now, in declaration order.

        A job is claimable while it still owes a result (not final,
        retry budget left) and no *other* worker holds a live lease on
        it; an expired lease does not block (that is the reclaim path).
        ``exclude`` names jobs this worker already failed.
        """
        now = time.time()
        out = []
        for job in self.ordered():
            if job.state in FINAL or job.id in exclude:
                continue
            if max_retries is not None and job.attempts > max_retries:
                continue
            winner = self.winner(job, now)
            if winner is None or winner["worker"] == worker:
                out.append(job)
        return out

    def claim(self, jobs: list[Job], ttl: float
              ) -> tuple[list[Job], list[tuple[Job, str | None]]]:
        """Lease ``jobs``: the ones won, and ``(job, holder)`` for the lost.

        Claim-then-arbitrate: append a claim per job, re-read the
        journal, keep the jobs where this worker's claim is the first
        live one, and release the rest.  A claim that did not persist
        (appends failing) cannot be arbitrated: the job is taken anyway,
        trading lease safety for completion (a double execution is safe,
        results are deterministic and deduplicated by fingerprint).
        """
        nonces: dict[str, str | None] = {}
        for job in jobs:
            self._nonce += 1
            nonce = f"{self.journal.worker}#{self._nonce}"
            _, persisted = self.append("claim", id=job.id,
                                       fingerprint=job.fingerprint,
                                       nonce=nonce, ttl=ttl)
            nonces[job.id] = nonce if persisted else None
        self.refresh()
        now = time.time()
        won, lost = [], []
        for job in jobs:
            winner = self.winner(self.jobs[job.id], now)
            if nonces[job.id] is None \
                    or (winner or {}).get("nonce") == nonces[job.id]:
                won.append(job)
            else:
                self.append("release", id=job.id, nonce=nonces[job.id])
                lost.append((job, (winner or {}).get("worker")))
        return won, lost

    # ------------------------------------------------------------------ #
    # snapshots
    # ------------------------------------------------------------------ #
    def _write_snapshot(self) -> bool:
        records, crc = self._covered
        return write_snapshot(self.path, self.key, {
            "covers": {"records": records, "crc": crc},
            "beats": self.beats, "ignored": self.ignored_records,
            "jobs": [job.to_state() for job in self.ordered()]})

    def close(self) -> bool | None:
        """Stop: snapshot the fold if the journal lost appends.

        Returns None when no append was lost (nothing written), else
        whether the snapshot landed.  The covered prefix counts this
        store's own appends since its last refresh, so a store other
        processes append to (a sharded campaign) refreshes first.
        """
        if not self.journal.append_errors:
            return None
        with self._lock:
            return self._write_snapshot()

    def compact(self, *, force: bool = False) -> bool:
        """Snapshot the fold and truncate the journal; True if it did.

        Only while no lease is live (unless ``force``): a live holder
        keeps appending.  A ``compact.lock`` (``O_EXCL``, broken once
        stale) serializes concurrent compactors.  A record appended by
        another process between the locked re-read and the truncation
        can only come from a lease-expired worker; losing it costs an
        idempotent re-execution, never a wrong state.  A crash between
        the snapshot and the truncation is harmless: the snapshot
        records the prefix it covers, and replay skips it.
        """
        self.refresh()
        now = time.time()
        if not force and any(self.winner(job, now) is not None
                             for job in self.jobs.values()):
            return False
        if not self._take_compact_lock():
            return False
        try:
            with self._lock:
                self._reload()
                if not self._write_snapshot():
                    return False
                write_atomic(self.path / JOURNAL_NAME, b"")
                self._covered = (0, None)
        except OSError:
            return False
        finally:
            try:
                os.unlink(self.path / COMPACT_LOCK)
            except OSError:
                pass
        return True

    def _take_compact_lock(self) -> bool:
        lock = self.path / COMPACT_LOCK
        for _ in range(2):
            try:
                fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                os.write(fd, f"{default_worker_id()} {time.time()}\n"
                         .encode())
                os.close(fd)
                return True
            except FileExistsError:
                try:
                    stale = (time.time() - lock.stat().st_mtime
                             > _LOCK_STALE_SECONDS)
                except OSError:
                    continue   # holder just released; retry once
                if not stale:
                    return False
                try:
                    os.unlink(lock)
                except OSError:
                    return False
            except OSError:
                return False
        return False
