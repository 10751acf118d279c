"""Byte-identical table regression: every E-driver vs goldens/tables/.

The contract the design-layer refactor (and every future driver change)
must keep: the rendered CSV of each experiment table at the pinned tiny
scale matches the committed golden byte for byte.  Regenerate after an
intentional change with ``python -m repro.verify.tables --update`` and
commit the diff.

The full matrix is built once per module through one shared context (all
designs planned as a single deduplicated batch), so this costs one tiny
sweep, not 22.
"""

import pytest

from repro.verify.tables import (DEFAULT_TABLE_ROOT, build_tables,
                                 golden_context, verify_tables)


@pytest.fixture(scope="module")
def context():
    return golden_context()


@pytest.fixture(scope="module")
def tables(context):
    return build_tables(context)


def test_the_plan_runs_every_cell_the_drivers_read(context, tables):
    # One engine batch: a driver that reads a cell its design does not
    # declare would run it on demand in a batch of its own.
    assert len(context.reports) == 1
    assert len(context.reports[0].outcomes) == len(context._results)


def test_goldens_are_committed():
    committed = sorted(p.stem for p in DEFAULT_TABLE_ROOT.glob("*.csv"))
    assert committed, (f"no table goldens under {DEFAULT_TABLE_ROOT}/; "
                       f"run python -m repro.verify.tables --update")


def test_every_table_matches_golden_bytes(tables):
    problems = verify_tables(tables=tables)
    assert not problems, "\n".join(problems)


def test_table_set_matches_experiment_registry(tables):
    from repro.harness.experiments import EXPERIMENTS
    expected = set(EXPERIMENTS) | {"e12a", "e12b"}
    assert set(tables) == expected
