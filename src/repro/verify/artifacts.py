"""Structured JSONL failure artifacts for offline triage.

Every verification layer renders its failures as plain dicts
(``CellVerdict.to_record``, ``CrossCheckResult.to_record``,
``FuzzFailure.to_record``); this module is the single place that turns
those records into an on-disk artifact CI can upload.  One JSON object
per line, so ``jq``/``grep`` triage works without loading the file, plus
a leading header line describing the producing run.

Record ``kind`` values: ``"golden"`` (drift cells), ``"refmodel"``
(cross-check divergences), ``"fuzz"`` (shrunk invariant violations).
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Iterable

from ..harness.files import write_atomic

#: Format marker for the header line; bump on incompatible layout changes.
ARTIFACT_VERSION = 1

#: Default artifact location (CI uploads this directory wholesale).
DEFAULT_REPORT_DIR = Path(".repro-verify")


def write_failure_artifact(path: str | os.PathLike[str],
                           records: Iterable[dict[str, Any]], *,
                           command: str = "",
                           context: dict[str, Any] | None = None) -> int:
    """Write ``records`` to ``path`` as JSONL; returns the record count.

    The first line is a header object (``{"kind": "header", ...}``) with
    the artifact version, the producing command and any ``context`` the
    caller wants preserved (master seed, tier, store path).  The write is
    atomic (:func:`repro.harness.files.write_atomic`) so a crashed run
    never leaves a truncated artifact for CI to upload; a failed write
    raises.
    """
    header: dict[str, Any] = {
        "kind": "header",
        "version": ARTIFACT_VERSION,
        "command": command,
    }
    if context:
        header.update(context)
    lines = [json.dumps(obj, sort_keys=True, default=str) + "\n"
             for obj in (header, *records)]
    write_atomic(path, "".join(lines))
    return len(lines) - 1


def read_failure_artifact(path: str | os.PathLike[str]
                          ) -> tuple[dict[str, Any], list[dict[str, Any]]]:
    """Read an artifact back; returns ``(header, records)``.

    Tolerates a trailing truncated line (a crash mid-append elsewhere
    must not make triage impossible) but requires a valid header.
    """
    header: dict[str, Any] | None = None
    records: list[dict[str, Any]] = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError:
                continue   # truncated tail — keep what we have
            if header is None:
                if obj.get("kind") != "header":
                    raise ValueError(
                        f"{path}: first record is not an artifact header")
                header = obj
            else:
                records.append(obj)
    if header is None:
        raise ValueError(f"{path}: empty artifact (no header line)")
    return header, records


__all__ = ["ARTIFACT_VERSION", "DEFAULT_REPORT_DIR",
           "read_failure_artifact", "write_failure_artifact"]
