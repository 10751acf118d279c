"""Shared context for the benchmark harness.

Every ``bench_eNN_*.py`` regenerates one of the paper's reconstructed
figures/tables (see DESIGN.md's experiment index).  They share one
:class:`~repro.harness.experiments.ExperimentContext` per session, so runs
reused across experiments (baselines, oracle sweeps) are simulated once,
and its batches fan out across one worker process per core.

Scale is controlled with the ``REPRO_BENCH_SCALE`` environment variable
(default 0.5; EXPERIMENTS.md numbers were recorded at 1.0).  Each benchmark
runs exactly once (``rounds=1``) — these are macro-experiments, not
micro-benchmarks, and they are deterministic.
"""

from __future__ import annotations

import os

import pytest

from repro.harness.engine import default_workers
from repro.harness.experiments import ExperimentContext

BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.5"))


@pytest.fixture(scope="session")
def ctx() -> ExperimentContext:
    return ExperimentContext(scale=BENCH_SCALE, jobs=default_workers())
