"""How every on-disk store writes a file, sets a bad one aside and sweeps.

The stores (result cache, checkpoints, goldens, failure artifacts,
job-store snapshots and journals, campaign meta, table goldens) differ
in what a failure means — one warns and runs on, another raises — but
share the mechanism, which lives here:

* :func:`write_atomic` writes a ``.tmp-<name>-*`` file in the target's
  directory and ``os.replace``'s it into place: no reader ever sees half
  a file, and a process killed mid-write leaves only the temp file;
* :func:`quarantine` renames a file that does not decode to
  ``<name>.corrupt`` (or deletes it), so it is reported once, not
  re-read on every run;
* :func:`sweep` removes files by glob: strays, quarantines, a store.

Imports nothing from :mod:`repro`, so any layer may use it.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path


def write_atomic(path: str | os.PathLike[str], data: str | bytes) -> None:
    """Replace ``path`` with ``data`` (a str is UTF-8 encoded) atomically.

    Creates the parent directory if needed.  On any failure the temp
    file is removed and the error propagates (``OSError`` for a full
    disk or an unwritable or missing directory), leaving ``path`` as it
    was.
    """
    path = Path(path)
    if isinstance(data, str):
        data = data.encode("utf-8")
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent,
                                    prefix=f".tmp-{path.name}-")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def quarantine(path: str | os.PathLike[str]) -> None:
    """Rename ``path`` to ``<name>.corrupt``, or unlink it; never raises."""
    path = Path(path)
    try:
        path.rename(path.with_name(path.name + ".corrupt"))
    except OSError:
        try:
            path.unlink()
        except OSError:
            pass


def sweep(root: str | os.PathLike[str], *globs: str) -> int:
    """Unlink the files under ``root`` matching any glob; return the count.

    A missing ``root`` sweeps nothing; a file that vanishes or cannot be
    removed is skipped.
    """
    matches = {path for pattern in globs for path in Path(root).glob(pattern)}
    removed = 0
    for path in matches:
        try:
            path.unlink()
            removed += 1
        except OSError:
            pass
    return removed
