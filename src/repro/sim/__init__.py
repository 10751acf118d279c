"""GPU timing-simulator substrate (cores, warps, CTAs, events, config)."""

from .checkpoint import (CHECKPOINT_VERSION, CheckpointError,
                         CheckpointRecorder, Snapshot)
from .config import DEFAULT_CONFIG, GPUConfig
from .gpu import (GPU, KernelRun, SimulationDeadlock, SimulationError,
                  SimulationTimeout)
from .invariants import (DEFAULT_SANITIZE_INTERVAL, InvariantSanitizer,
                         InvariantViolation)
from .isa import Instruction, Op, alu, barrier, exit_, load, shared, store
from .kernel import Kernel, KernelResourceError
from .stats import CacheStats, DRAMStats, KernelStats, RunResult

__all__ = [
    "CHECKPOINT_VERSION", "CheckpointError", "CheckpointRecorder",
    "Snapshot", "DEFAULT_CONFIG", "GPUConfig", "GPU", "KernelRun",
    "SimulationDeadlock", "SimulationError", "SimulationTimeout",
    "DEFAULT_SANITIZE_INTERVAL", "InvariantSanitizer", "InvariantViolation",
    "Instruction", "Op", "alu", "barrier", "exit_", "load", "shared",
    "store", "Kernel", "KernelResourceError", "CacheStats", "DRAMStats",
    "KernelStats", "RunResult",
]
