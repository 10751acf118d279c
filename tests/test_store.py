"""The job store's one fold, property-checked against its snapshot rule.

Seeded random journals mix both owners' vocabularies: a campaign's
declared jobs claimed and released by two workers, the daemon's submits,
crashes and peer terminals, a cluster peer's replicas (``cluster-job``),
their terminals and the submits that adopt them, every terminal kind,
heartbeats and records naming an unknown id.  Snapshotting after any
prefix and folding the rest, with the journal truncated or not, must
equal the fold of the whole journal; so must a store that lost appends,
snapshotted when it stopped and was reloaded.  No subprocess, no
simulation.
"""

import json
import random
import warnings

import pytest

from repro.design.journal import JOURNAL_NAME, record_crc
from repro.design.store import Job, JobStore, lease_alive
from repro.harness.faults import FaultPlan

T0 = 1_000_000.0
NOW = T0 + 62.0             # some claims still live, some expired
DECLARED = {"c:0": "fp-c0", "c:1": "fp-c1"}
SUBMITTED = {"s:0": "fp-s0", "s:1": "fp-s1"}
KINDS = ("submit", "submit", "claim", "claim", "claim", "release",
         "release", "heartbeat", "done", "failed", "failed", "quarantined",
         "exhausted", "crash", "crash", "peer-terminal", "cluster-job",
         "cluster-job", "cluster-terminal")


def _records(seed, count=60):
    rng = random.Random(seed)
    fingerprints = {**DECLARED, **SUBMITTED}
    nonces = {"w1": [], "w2": []}
    t = T0
    out = []
    for ordinal in range(count):
        t += rng.uniform(0.0, 2.0)
        worker = rng.choice(("w1", "w2"))
        key = rng.choice([*fingerprints, "ghost"])
        fingerprint = fingerprints.get(key, "fp-ghost")
        kind = rng.choice(KINDS)
        if kind == "submit" and key == "ghost":
            key = rng.choice(list(SUBMITTED))    # only replicated, if ever
        record = {"type": kind, "worker": worker, "t": t, "id": key}
        if kind == "submit":
            record.update(tenant=rng.choice("ab"), fingerprint=fingerprint,
                          ordinal=rng.randrange(4), job={"seed": ordinal})
        elif kind == "claim":
            nonce = f"{worker}#{ordinal}"
            nonces[worker].append(nonce)
            record.update(fingerprint=fingerprint, nonce=nonce,
                          ttl=rng.choice((1.0, 5.0, 60.0)))
        elif kind == "release":
            if nonces[worker] and rng.random() < 0.7:
                record["nonce"] = rng.choice(nonces[worker])
        elif kind == "heartbeat":
            del record["id"]
        elif kind == "crash":
            record.update(fingerprint=fingerprint, error="killed worker",
                          wedged=rng.random() < 0.5)
        elif kind in ("peer-terminal", "cluster-terminal"):
            record.update(state=rng.choice(("done", "failed",
                                            "quarantined", "bogus")),
                          cycles=rng.randrange(100, 200), ipc=1.5,
                          error=None)
            if kind == "peer-terminal":
                record["via"] = "n1"
            else:
                record.update(owner="n1", fingerprint=rng.choice(
                    (fingerprint, fingerprint, "fp-wrong")))
        elif kind == "cluster-job":
            record.update(owner="n1", tenant="a", fingerprint=fingerprint,
                          job={"seed": ordinal})
        else:
            stamp = rng.choice((fingerprint, fingerprint, "fp-wrong", None))
            if stamp is not None:
                record["fingerprint"] = stamp
            if kind == "done":
                record.update(cycles=rng.randrange(100, 200),
                              ipc=rng.choice((1.0, 2.5)))
            else:
                record["error"] = f"error {ordinal}"
        record["crc"] = record_crc(record)
        out.append(record)
    return out


def _write(directory, records, mode="w"):
    with open(directory / JOURNAL_NAME, mode) as handle:
        for record in records:
            handle.write(json.dumps(record) + "\n")


def _store(directory, **kwargs):
    store = JobStore(directory, key="k", **kwargs)
    store.declare(Job(key, fingerprint, {}, index)
                  for index, (key, fingerprint)
                  in enumerate(DECLARED.items()))
    return store


def _view(store):
    """Everything a fold decides, with leases judged at ``NOW``."""
    jobs = {job.id: (job.owner, job.index, job.state, job.attempts,
                     job.crashes, job.cycles, job.ipc, job.error,
                     job.duplicate_done,
                     [(claim["worker"], claim["nonce"])
                      for claim in job.claims
                      if lease_alive(claim, store.beats, NOW)])
            for job in store.ordered()}
    return (jobs, store.next_index, store.duplicate_done,
            store.ignored_records)


def _first_done(records):
    """Per job: the first accepted done's cycles and the later ones.

    A job is known from its declaration, its first ``submit`` or its
    first ``cluster-job``, with that record's fingerprint."""
    fingerprints, out = dict(DECLARED), {}
    for record in records:
        key = record.get("id")
        if record["type"] in ("submit", "cluster-job"):
            fingerprints.setdefault(key, record["fingerprint"])
        done = record["type"] == "done" or (
            record["type"] in ("peer-terminal", "cluster-terminal")
            and record["state"] == "done")
        if done and key in fingerprints and record.get("fingerprint") in (
                None, fingerprints[key]):
            cycles, later = out.get(key, (record["cycles"], -1))
            out[key] = (cycles, later + 1)
    return out


def _owners(records):
    """Per job: ``(owner, index)``.  A ``cluster-job`` introduces a
    replica of its owner; a ``submit`` introduces an own job at its
    ordinal, or adopts a replica at it."""
    out = {key: ("", index) for index, key in enumerate(DECLARED)}
    for record in records:
        key, kind = record.get("id"), record["type"]
        if kind == "cluster-job":
            out.setdefault(key, (record["owner"], 0))
        elif kind == "submit" and (key not in out or out[key][0]):
            out[key] = ("", record["ordinal"])
    return out


@pytest.mark.parametrize("seed", range(6))
def test_snapshot_after_any_prefix_folds_like_the_whole_journal(tmp_path,
                                                                seed):
    records = _records(seed)
    whole = tmp_path / "whole"
    whole.mkdir()
    _write(whole, records)
    folded = _store(whole).refresh()
    expected = _view(folded)
    # First done wins; later ones are only counted.
    for key, (cycles, later) in _first_done(records).items():
        assert (folded.jobs[key].cycles,
                folded.jobs[key].duplicate_done) == (cycles, later)
    # Replicas stay their owner's until a submit adopts them, and only
    # this store's own jobs advance the next submission ordinal.
    owners = _owners(records)
    assert {job.id: (job.owner, job.index)
            for job in folded.ordered()} == owners
    assert folded.next_index == 1 + max(
        index for owner, index in owners.values() if not owner)

    for k in range(len(records) + 1):
        directory = tmp_path / f"k{k}"
        directory.mkdir()
        _write(directory, records[:k])
        assert _store(directory).compact(force=True)
        # Truncated: the rest lands in the emptied journal.
        _write(directory, records[k:], mode="a")
        assert _view(_store(directory).refresh()) == expected, k
        # Not truncated: the compactor died before it could truncate.
        _write(directory, records)
        assert _view(_store(directory).refresh()) == expected, k


@pytest.mark.parametrize("seed", range(3))
def test_lost_appends_snapshot_on_close_and_reload(tmp_path, seed):
    records = _records(seed)
    for lost_from in (0, 7, 30, len(records)):
        directory = tmp_path / f"lost{lost_from}"
        directory.mkdir()
        plan = FaultPlan.parse(f"fail-append:{lost_from}",
                               state_dir=str(directory / "faults"))
        store = _store(directory, worker="w1", faults=plan)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            for record in records:
                store.append(record["type"],
                             **{key: value for key, value in record.items()
                                if key not in ("type", "crc")})
        in_memory = _view(store)
        snapshot = store.close()
        assert snapshot is (None if lost_from == len(records) else True)
        assert _view(_store(directory).refresh()) == in_memory, lost_from
