"""Experiment harness: runner, batch engine, experiment drivers, reporting."""

from .cache import ResultCache
from .checkpoints import CheckpointPlan, CheckpointStore
from .compare import compare_runs, stall_shift
from .engine import (Backoff, BatchReport, JobExecutionError, JobOutcome,
                     execute_tagged, run_batch, run_jobs)
from .exit_codes import (EXIT_EXHAUSTED, EXIT_OK, EXIT_PARTIAL, EXIT_SHED,
                         EXIT_USAGE)
from .faults import FaultPlan, FaultSpecError, RunSaboteur
from .jobs import JobError, SimJob
from .metrics import CKEMetrics, cke_metrics
from .runner import simulate
from .sweeps import config_sweep, occupancy_position, sweep_design
from .validate import RunValidationError, validate_run

__all__ = ["Backoff", "BatchReport", "CheckpointPlan",
           "CheckpointStore", "CKEMetrics", "cke_metrics",
           "EXIT_EXHAUSTED", "EXIT_OK", "EXIT_PARTIAL", "EXIT_SHED",
           "EXIT_USAGE", "execute_tagged",
           "compare_runs", "stall_shift", "config_sweep", "FaultPlan",
           "FaultSpecError", "JobError", "JobExecutionError", "JobOutcome",
           "occupancy_position", "ResultCache", "run_batch", "run_jobs",
           "RunSaboteur", "RunValidationError", "simulate", "SimJob",
           "validate_run"]
