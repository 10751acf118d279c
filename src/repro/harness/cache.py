"""Persistent, cross-process result cache.

One JSON file per job fingerprint under a cache root (default
``.repro-cache/`` in the working directory), written and quarantined
through :mod:`repro.harness.files`: concurrent workers (or concurrent
``repro-exp`` invocations) never observe a half-written entry.  A
corrupted or unreadable entry is treated as a miss and silently
recomputed, never a crash; an *unwritable* cache (disk full, read-only
directory) degrades the same way — :meth:`ResultCache.put` warns once,
counts a ``write_errors`` stat and the batch keeps running un-cached.

The cache key is :meth:`repro.harness.jobs.SimJob.fingerprint`, which
includes the :data:`~repro.harness.jobs.SIM_VERSION` salt; bumping the salt
invalidates every old entry without touching the files.

Rich meta payloads (the ``timeline``/``trace`` riders collected by
:mod:`repro.telemetry`) round-trip through the same JSON entry; their
decode runs inside the same try block as everything else, so an entry with
a mangled timeline or trace is a miss and gets recomputed, never a crash.

A *corrupt* entry (the file exists but does not decode) is additionally
**quarantined** to ``<fingerprint>.json.corrupt`` and counted in
``corrupt_entries``, so a bad entry is reported once in the batch summary
instead of silently re-missing on every future run.
"""

from __future__ import annotations

import json
import warnings
from pathlib import Path
from typing import Any

from ..sim.stats import RunResult
from .files import quarantine, sweep, write_atomic

#: Default cache directory (relative to the current working directory).
DEFAULT_CACHE_DIR = ".repro-cache"

#: On-disk schema version, distinct from the simulator-version salt: the
#: salt changes the *fingerprint*, this guards the file layout itself.
_ENTRY_FORMAT = 1


class ResultCache:
    """A directory of ``<fingerprint>.json`` result files."""

    def __init__(self, root: str | Path = DEFAULT_CACHE_DIR) -> None:
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self.write_errors = 0
        self.corrupt_entries = 0
        self._warned_unwritable = False

    def __repr__(self) -> str:
        return (f"ResultCache({str(self.root)!r}, hits={self.hits}, "
                f"misses={self.misses}, write_errors={self.write_errors}, "
                f"corrupt_entries={self.corrupt_entries})")

    # ------------------------------------------------------------------ #
    def path_for(self, fingerprint: str) -> Path:
        return self.root / f"{fingerprint}.json"

    def get(self, fingerprint: str) -> RunResult | None:
        """The cached result, or None (counting a miss) if absent/corrupt.

        An entry that exists but fails to decode — bad JSON, a truncated
        write from a killed process, a schema change — is quarantined to
        ``<fingerprint>.json.corrupt`` and counted in
        :attr:`corrupt_entries` before the miss is returned.
        """
        path = self.path_for(fingerprint)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                raw = handle.read()
        except OSError:
            # Missing or unreadable file: an ordinary miss.
            self.misses += 1
            return None
        try:
            entry = json.loads(raw)
            if entry.get("format") != _ENTRY_FORMAT:
                raise ValueError(f"unknown entry format in {path}")
            result = RunResult.from_dict(entry["result"])
        except (ValueError, KeyError, TypeError, AttributeError):
            quarantine(path)
            self.corrupt_entries += 1
            self.misses += 1
            return None
        self.hits += 1
        return result

    def put(self, fingerprint: str, result: RunResult) -> bool:
        """Store a result atomically.

        Returns True on success.  Storage failures (disk full, read-only
        cache directory, quota) degrade gracefully: the first one warns,
        every one counts a :attr:`write_errors`, and the caller keeps
        running un-cached — a broken cache must never crash a batch.
        """
        entry: dict[str, Any] = {
            "format": _ENTRY_FORMAT,
            "fingerprint": fingerprint,
            "result": result.to_dict(),
        }
        try:
            write_atomic(self.path_for(fingerprint),
                         json.dumps(entry, separators=(",", ":")))
        except OSError as error:
            self.write_errors += 1
            if not self._warned_unwritable:
                self._warned_unwritable = True
                warnings.warn(
                    f"result cache {self.root} is not writable "
                    f"({type(error).__name__}: {error}); continuing "
                    f"un-cached", RuntimeWarning, stacklevel=2)
            return False
        return True

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        # Stray .tmp-* files (a worker killed mid-write) are not entries.
        return sum(1 for path in self.root.glob("*.json")
                   if not path.name.startswith(".tmp-"))

    def clear(self) -> int:
        """Delete every entry (plus quarantined/temp files); return count."""
        return sweep(self.root, "*.json", "*.corrupt", ".tmp-*")
