"""Append-only, checksummed JSONL write-ahead journal for job stores.

The durable history of a :class:`~repro.design.store.JobStore`, shared
by campaigns and the ``repro-serve`` daemon.  Everything that
**happens** to a job (submitted, claimed by a worker, finished, failed,
crashed, exhausted) is appended here as one self-checksummed JSON line.
Nothing is ever rewritten in place, so a crash at any byte can at worst
tear the final record, and replay is torn-tail tolerant by construction.

Record format (one per line)::

    {"type": "done", "id": "ab12..:3", "fingerprint": "ab..",
     "worker": "h-42", "t": 1754650000.1, ..., "crc": "9f2c4e..."}

``crc`` is the first 16 hex chars of sha256 over the canonical JSON of
the record *without* the crc key.  :func:`replay_journal` drops any line
that does not parse or whose checksum disagrees (counting it), and drops
a trailing partial line (a torn write) silently — truncating the journal
at *any* byte boundary therefore recovers a valid prefix of the history,
and corrupting any single record costs exactly that record (property
tested in ``tests/test_journal.py``).

Appends are a single ``write()`` on an ``O_APPEND`` descriptor opened
per call, so concurrent workers sharing one journal file (one host or
several sharing a filesystem) interleave whole records, never bytes —
file order is the total order lease arbitration relies on.  An append
that fails with ``OSError`` (disk full, read-only store, or an injected
``fail-append`` fault) degrades gracefully: warn once, count it, keep
the record in memory so the store can fall back to a snapshot when it
stops instead of aborting.

The *snapshot* (``snapshot.json``) is written atomically and bound to
its store by a key; what it holds is the store's business
(:mod:`repro.design.store`).
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..harness.faults import FaultPlan

#: File names inside a store directory.
JOURNAL_NAME = "journal.jsonl"
SNAPSHOT_NAME = "snapshot.json"

#: On-disk snapshot format version (format 1 held a campaign's terminal
#: cell states and no covered prefix).
SNAPSHOT_FORMAT = 2

#: Hex chars of sha256 kept as the per-record checksum.
_CRC_HEX = 16


def _canonical(record: dict) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def record_crc(record: dict) -> str:
    """Checksum over the record without its ``crc`` key."""
    body = {key: value for key, value in record.items() if key != "crc"}
    return hashlib.sha256(_canonical(body).encode("utf-8")) \
        .hexdigest()[:_CRC_HEX]


def decode_record(line: bytes) -> dict | None:
    """One journal line back to a record, or None if unparseable/corrupt."""
    try:
        record = json.loads(line.decode("utf-8"))
    except (ValueError, UnicodeDecodeError):
        return None
    if not isinstance(record, dict) or not isinstance(record.get("type"),
                                                      str):
        return None
    if record.get("crc") != record_crc(record):
        return None
    return record


@dataclass
class JournalReplay:
    """What :func:`replay_journal` recovered from one journal file."""

    records: list[dict] = field(default_factory=list)
    #: Complete lines that failed to parse or checksum (scribbled bytes).
    corrupt_records: int = 0
    #: The file ended mid-record (torn write from a killed worker).
    torn_tail: bool = False


def replay_journal(path: str | Path) -> JournalReplay:
    """Read every valid record, in file order, tolerating damage.

    A missing or unreadable file is an empty history.  A trailing
    partial line (no final newline) is a torn tail: dropped, flagged,
    never an error.  Any complete line that fails to decode is counted
    in ``corrupt_records`` and skipped.
    """
    try:
        data = Path(path).read_bytes()
    except OSError:
        return JournalReplay()
    body, newline, tail = data.rpartition(b"\n")
    replay = JournalReplay(torn_tail=bool(tail.strip()))
    if not newline:
        return replay
    for line in body.split(b"\n"):
        line = line.strip()
        if not line:
            continue
        record = decode_record(line)
        if record is None:
            replay.corrupt_records += 1
        else:
            replay.records.append(record)
    return replay


class Journal:
    """One worker's append handle on a store journal.

    ``worker`` stamps every record (lease arbitration and heartbeats key
    on it); ``faults`` optionally wires the campaign-grade injected
    failures (``fail-append``, ``torn-tail``, ``corrupt-journal``,
    ``kill-worker`` — see :mod:`repro.harness.faults`), addressed by this
    process's append ordinal.  Thread-safe.
    """

    def __init__(self, path: str | Path, *, worker: str = "-",
                 faults: "FaultPlan | None" = None) -> None:
        self.path = Path(path)
        self.worker = worker
        self.faults = faults
        self.appends = 0
        self.append_errors = 0
        #: Records that failed to persist (kept so the store can fold
        #: them into its in-memory state and snapshot them on exit).
        self.unpersisted: list[dict] = []
        self._warned = False
        self._lock = threading.Lock()

    def __repr__(self) -> str:
        return (f"Journal({str(self.path)!r}, worker={self.worker!r}, "
                f"appends={self.appends}, errors={self.append_errors})")

    # ------------------------------------------------------------------ #
    def append(self, type: str, **payload: Any) -> tuple[dict, bool]:
        """Append one record; return ``(record, persisted)``.

        A storage failure never raises: the first one warns, every one
        counts, and the record is remembered in :attr:`unpersisted` so
        the caller can degrade to snapshot-on-exit durability.
        """
        record = {"type": type, "worker": self.worker, "t": time.time(),
                  **payload}
        record["crc"] = record_crc(record)
        line = (_canonical(record) + "\n").encode("utf-8")
        with self._lock:
            ordinal = self.appends
            try:
                if self.faults is not None \
                        and self.faults.journal_fail_append(ordinal):
                    raise OSError("injected journal append failure")
                fd = os.open(self.path,
                             os.O_CREAT | os.O_WRONLY | os.O_APPEND, 0o644)
                try:
                    os.write(fd, line)
                finally:
                    os.close(fd)
            except OSError as error:
                self.append_errors += 1
                self.unpersisted.append(record)
                if not self._warned:
                    self._warned = True
                    warnings.warn(
                        f"journal {self.path} is not appendable "
                        f"({type_name(error)}: {error}); continuing with "
                        f"in-memory state and snapshot-on-exit durability",
                        RuntimeWarning, stacklevel=2)
                return record, False
            self.appends += 1
        if self.faults is not None:
            self._post_append_faults(ordinal, len(line))
        return record, True

    # ------------------------------------------------------------------ #
    def _post_append_faults(self, ordinal: int, line_len: int) -> None:
        """Fire campaign-grade faults addressed at append ``ordinal``.

        ``torn-tail`` chops the just-written record in half (a torn
        write), ``corrupt-journal`` scribbles a byte inside it, and
        ``kill-worker`` takes the whole campaign process down — each at
        most once per campaign (shared marker files), so a restarted
        worker does not die again at the same point.
        """
        from ..harness.faults import KILL_EXIT_CODE
        for action in self.faults.journal_post_append(ordinal):
            try:
                size = os.path.getsize(self.path)
            except OSError:
                size = line_len
            if action == "torn-tail":
                try:
                    os.truncate(self.path, max(size - line_len // 2, 0))
                except OSError:
                    pass
            elif action == "corrupt-journal":
                try:
                    with open(self.path, "r+b") as handle:
                        handle.seek(max(size - line_len + 2, 0))
                        handle.write(b"\xff")
                except OSError:
                    pass
            elif action == "kill-worker":
                os._exit(KILL_EXIT_CODE)


def type_name(error: BaseException) -> str:
    return type(error).__name__


# --------------------------------------------------------------------------- #
# snapshots
# --------------------------------------------------------------------------- #

def write_snapshot(directory: str | Path, key: str,
                   state: dict[str, Any]) -> bool:
    """Atomically persist a store's folded ``state``; True on success.

    ``state`` is any JSON-able dict, bound to its store by ``key``.
    Like every store in this repo, an unwritable snapshot degrades
    (returns False) rather than raising.
    """
    directory = Path(directory)
    payload = {"format": SNAPSHOT_FORMAT, "key": key,
               "written": time.time(), "state": state}
    tmp_name = None
    try:
        directory.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(dir=directory, prefix=".tmp-snap-")
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        os.replace(tmp_name, directory / SNAPSHOT_NAME)
    except OSError:
        if tmp_name is not None:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
        return False
    return True


def load_snapshot(directory: str | Path, key: str) -> dict[str, Any]:
    """The snapshot's state, or empty when absent, corrupt or foreign.

    A snapshot that does not decode, is of another format, or is bound
    to a different key is quarantined to ``snapshot.json.corrupt``
    (mirroring the result cache) and ignored.
    """
    path = Path(directory) / SNAPSHOT_NAME
    try:
        raw = path.read_text(encoding="utf-8")
    except OSError:
        return {}
    try:
        payload = json.loads(raw)
        if payload.get("format") != SNAPSHOT_FORMAT:
            raise ValueError("unknown snapshot format")
        if payload.get("key") != key:
            raise ValueError("snapshot from a different store")
        state = payload["state"]
        if not isinstance(state, dict):
            raise ValueError("snapshot state is not an object")
    except (ValueError, KeyError, TypeError, AttributeError):
        try:
            path.rename(path.with_name(path.name + ".corrupt"))
        except OSError:
            try:
                path.unlink()
            except OSError:
                pass
        return {}
    return state
