"""Durable, fingerprint-keyed checkpoint storage for the batch engine.

The sim layer produces :class:`~repro.sim.checkpoint.Snapshot` objects;
this module persists them beside the result cache so a crashed or
timed-out job can resume from its newest snapshot instead of restarting
from cycle zero.  The layout mirrors :mod:`repro.harness.cache`:

* one directory (default ``.repro-checkpoints/`` in the working
  directory), one file per ``(fingerprint, cycle)`` pair, named
  ``<fingerprint>.<cycle>.ckpt`` with the cycle zero-padded so lexical
  order is cycle order;
* files are written, quarantined and swept through
  :mod:`repro.harness.files`; writes are *best-effort* — an unwritable
  store warns once, counts ``write_errors`` and the run keeps going
  unprotected rather than crashing;
* every file embeds a sha256 digest of the snapshot payload.  A file that
  fails to load or verify is **quarantined** (to
  ``<fingerprint>.<cycle>.ckpt.corrupt``), counted in ``corrupt_entries``,
  and the next-newest checkpoint is tried — a truncated write from a
  killed worker can cost at most one checkpoint interval of progress,
  never the run;
* only the newest :data:`KEEP_PER_JOB` checkpoints per fingerprint are
  retained (resume only ever wants the newest; the runner-up survives as
  insurance against a corrupt newest).

:class:`CheckpointPlan` is the *description* half — a frozen, picklable
``(root, interval)`` pair that rides inside job dispatch to worker
processes, each of which opens its own :class:`CheckpointStore` handle.
"""

from __future__ import annotations

import hashlib
import pickle
import warnings
from dataclasses import dataclass
from pathlib import Path

from ..sim.checkpoint import CHECKPOINT_VERSION, Snapshot
from .files import quarantine, sweep, write_atomic

#: Default checkpoint directory (relative to the working directory).
DEFAULT_CHECKPOINT_DIR = ".repro-checkpoints"

#: Newest checkpoints kept per job fingerprint.
KEEP_PER_JOB = 2

#: On-disk container format (the snapshot payload itself is versioned
#: separately by :data:`~repro.sim.checkpoint.CHECKPOINT_VERSION`).
_FILE_FORMAT = 1


@dataclass(frozen=True)
class CheckpointPlan:
    """Picklable description of a checkpointing policy for a batch.

    ``interval`` is the snapshot period in simulated cycles; ``root`` is
    the store directory.  Workers build a live :class:`CheckpointStore`
    from the plan at execution time, so the plan itself stays a pure
    value (safe to pickle into a process pool, safe to fingerprint-skip —
    checkpointing never changes results, so it never joins the job
    fingerprint).
    """

    interval: int
    root: str = DEFAULT_CHECKPOINT_DIR

    def __post_init__(self) -> None:
        if self.interval < 1:
            raise ValueError(f"checkpoint interval must be >= 1 cycle, "
                             f"got {self.interval}")

    def store(self) -> "CheckpointStore":
        return CheckpointStore(self.root)


class CheckpointStore:
    """A directory of ``<fingerprint>.<cycle>.ckpt`` snapshot files."""

    def __init__(self, root: str | Path = DEFAULT_CHECKPOINT_DIR) -> None:
        self.root = Path(root)
        self.write_errors = 0
        self.corrupt_entries = 0
        self._warned_unwritable = False

    def __repr__(self) -> str:
        return (f"CheckpointStore({str(self.root)!r}, "
                f"write_errors={self.write_errors}, "
                f"corrupt_entries={self.corrupt_entries})")

    # ------------------------------------------------------------------ #
    def path_for(self, fingerprint: str, cycle: int) -> Path:
        return self.root / f"{fingerprint}.{cycle:012d}.ckpt"

    def put(self, fingerprint: str, snapshot: Snapshot) -> bool:
        """Persist a snapshot atomically; prune old ones.  True on success.

        Shaped for currying into a
        :class:`~repro.sim.checkpoint.CheckpointRecorder` sink:
        ``CheckpointRecorder(interval, lambda s: store.put(fp, s))``.
        """
        record = {
            "format": _FILE_FORMAT,
            "fingerprint": fingerprint,
            "digest": hashlib.sha256(snapshot.payload).hexdigest(),
            "snapshot": snapshot,
        }
        try:
            write_atomic(self.path_for(fingerprint, snapshot.cycle),
                         pickle.dumps(record,
                                      protocol=pickle.HIGHEST_PROTOCOL))
        except OSError as error:
            self.write_errors += 1
            if not self._warned_unwritable:
                self._warned_unwritable = True
                warnings.warn(
                    f"checkpoint store {self.root} is not writable "
                    f"({type(error).__name__}: {error}); running "
                    f"unprotected", RuntimeWarning, stacklevel=2)
            return False
        self._prune(fingerprint)
        return True

    def newest(self, fingerprint: str) -> Snapshot | None:
        """The newest *valid* snapshot for a job, or None.

        Corrupt files (bad pickle, digest mismatch, wrong format or
        version) are quarantined to ``*.ckpt.corrupt`` and counted, and
        the next-newest candidate is tried.
        """
        for path in sorted(self._entries(fingerprint), reverse=True):
            snapshot = self._load(path, fingerprint)
            if snapshot is not None:
                return snapshot
        return None

    def discard(self, fingerprint: str) -> int:
        """Drop every checkpoint for a finished job; return the count.

        Quarantined ``*.corrupt`` files for the same fingerprint are
        removed too — once the job has completed they hold no forensic
        value and would otherwise accumulate forever (``clear`` was the
        only thing that ever deleted them).
        """
        return sweep(self.root, f"{fingerprint}.*.ckpt",
                     f"{fingerprint}.*.corrupt")

    def corrupt_strays(self) -> list[Path]:
        """Every quarantined ``*.corrupt`` file currently in the store."""
        return sorted(self.root.glob("*.corrupt"))

    # ------------------------------------------------------------------ #
    def _entries(self, fingerprint: str) -> list[Path]:
        return list(self.root.glob(f"{fingerprint}.*.ckpt"))

    def _load(self, path: Path, fingerprint: str) -> Snapshot | None:
        try:
            with open(path, "rb") as handle:
                record = pickle.load(handle)
            if record["format"] != _FILE_FORMAT:
                raise ValueError(f"unknown container format in {path}")
            snapshot = record["snapshot"]
            if not isinstance(snapshot, Snapshot):
                raise TypeError(f"{path} does not hold a Snapshot")
            if record["fingerprint"] != fingerprint:
                raise ValueError(f"{path} belongs to another job")
            digest = hashlib.sha256(snapshot.payload).hexdigest()
            if record["digest"] != digest:
                raise ValueError(f"payload digest mismatch in {path}")
            if snapshot.version != CHECKPOINT_VERSION:
                raise ValueError(f"stale snapshot version in {path}")
        except OSError:
            # Racing process pruned/claimed it: not corruption, just gone.
            return None
        except Exception:   # noqa: BLE001 - any decode failure is corruption
            quarantine(path)
            self.corrupt_entries += 1
            return None
        return snapshot

    def _prune(self, fingerprint: str) -> None:
        # Keep the newest KEEP_PER_JOB *valid* checkpoints.  Quarantined
        # ``*.corrupt`` files (which the ``*.ckpt`` glob never matches)
        # must not count toward the keep margin — the runner-up exists
        # precisely as insurance against a corrupt newest, so letting a
        # quarantine displace it would defeat it.
        for path in sorted(self._entries(fingerprint))[:-KEEP_PER_JOB]:
            try:
                path.unlink()
            except OSError:
                pass

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return sum(1 for path in self.root.glob("*.ckpt")
                   if not path.name.startswith(".tmp-"))

    def clear(self) -> int:
        """Delete every checkpoint, quarantine and temp file."""
        return sweep(self.root, "*.ckpt", "*.corrupt", ".tmp-*")
