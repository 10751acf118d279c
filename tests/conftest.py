"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.harness.experiments import EXPERIMENT_DESIGNS, plan_experiments
from repro.sim.config import GPUConfig
from repro.verify.tables import build_tables, golden_context


@pytest.fixture
def small_config() -> GPUConfig:
    """A 2-SM GPU with small caches — fast, but structurally complete."""
    return GPUConfig.small()


@pytest.fixture(scope="session")
def table_context():
    """The table goldens' context with every E-design planned as one
    engine batch, simulated once per session.

    Read-only: a test may run the drivers and re-plan on it, but never a
    cell no design declares, which would add a second batch (the table
    golden test asserts there is exactly one)."""
    ctx = golden_context()
    plan_experiments(ctx, list(EXPERIMENT_DESIGNS))
    return ctx


@pytest.fixture(scope="session")
def tables(table_context) -> dict[str, str]:
    """Every experiment table rendered from :func:`table_context`."""
    return build_tables(table_context)
