"""Golden tables: the committed, byte-exact E-driver outputs.

The golden *result* store (:mod:`repro.verify.golden`) pins individual
simulation cells; this module pins the other end of the pipeline — the
rendered CSV of every experiment table at a fixed tiny scale
(``goldens/tables/*.csv``).  The design-layer refactor (and any future
driver change) must reproduce them byte for byte; the regression test
(``tests/test_table_goldens.py``) and ``repro-verify`` both compare
against the committed files.

Regenerate after an *intentional* table change::

    PYTHONPATH=src python -m repro.verify.tables --update

and commit the diff — the review of that diff is the drift gate.
"""

from __future__ import annotations

import argparse
from pathlib import Path

from ..harness.experiments import (EXPERIMENT_DESIGNS, EXPERIMENTS,
                                   ExperimentContext, e12_benchmark_table,
                                   e12_config_table, plan_experiments)
from ..harness.files import write_atomic

#: Where the committed table goldens live.
DEFAULT_TABLE_ROOT = Path("goldens") / "tables"

#: The pinned environment: tiny grids, default seed/config, serial.
TABLE_SCALE = 0.02


def golden_context() -> ExperimentContext:
    """The exact context the table goldens are defined against."""
    return ExperimentContext(scale=TABLE_SCALE, jobs=1)


def build_tables(ctx: ExperimentContext | None = None) -> dict[str, str]:
    """Render every experiment table, keyed by golden file stem.

    All designs are planned as one deduplicated batch first, so the full
    matrix simulates each unique job exactly once.
    """
    ctx = ctx if ctx is not None else golden_context()
    plan_experiments(ctx, list(EXPERIMENT_DESIGNS))
    tables = {exp_id: driver(ctx).to_csv() + "\n"
              for exp_id, driver in EXPERIMENTS.items()}
    tables["e12a"] = e12_config_table(ctx).to_csv() + "\n"
    tables["e12b"] = e12_benchmark_table(ctx).to_csv() + "\n"
    return tables


def verify_tables(root: str | Path = DEFAULT_TABLE_ROOT,
                  tables: dict[str, str] | None = None) -> list[str]:
    """Compare freshly built tables against the committed goldens.

    Returns a list of human-readable mismatch descriptions (empty =
    clean): changed content, missing golden files, and stale goldens
    with no matching experiment are all reported.
    """
    root = Path(root)
    tables = tables if tables is not None else build_tables()
    problems: list[str] = []
    for stem, text in sorted(tables.items()):
        path = root / f"{stem}.csv"
        if not path.is_file():
            problems.append(f"{stem}: golden file missing ({path}); "
                            f"run -m repro.verify.tables --update")
            continue
        if path.read_text() != text:
            problems.append(f"{stem}: table differs from {path} "
                            f"(byte-identical contract broken)")
    for path in sorted(root.glob("*.csv")):
        if path.stem not in tables:
            problems.append(f"{path.stem}: stale golden {path} has no "
                            f"matching experiment")
    return problems


def update_tables(root: str | Path = DEFAULT_TABLE_ROOT) -> int:
    """(Re)write every table golden atomically; returns the number written."""
    root = Path(root)
    tables = build_tables()
    for stem, text in sorted(tables.items()):
        write_atomic(root / f"{stem}.csv", text)
    for path in sorted(root.glob("*.csv")):
        if path.stem not in tables:
            path.unlink()
    return len(tables)


def main(argv=None) -> int:   # pragma: no cover - thin CLI shim
    parser = argparse.ArgumentParser(
        prog="python -m repro.verify.tables",
        description="Compare every experiment table with its golden, or "
                    "rewrite the goldens.")
    parser.add_argument("--update", action="store_true",
                        help=f"rewrite {DEFAULT_TABLE_ROOT}/ instead of "
                             "comparing")
    if parser.parse_args(argv).update:
        written = update_tables()
        print(f"[table goldens: {written} file(s) -> {DEFAULT_TABLE_ROOT}/]")
        return 0
    problems = verify_tables()
    for problem in problems:
        print(f"MISMATCH {problem}")
    print(f"[table goldens: {len(problems)} problem(s)]")
    return 1 if problems else 0


if __name__ == "__main__":   # pragma: no cover
    raise SystemExit(main())
