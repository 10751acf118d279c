"""repro — reproduction of "Improving GPGPU resource utilization through
alternative thread block scheduling" (Lee et al., HPCA 2014).

Public API tour::

    from repro import simulate, make_kernel, GPUConfig
    from repro import LCSScheduler, BCSScheduler, MixedCKE

    kernel = make_kernel("kmeans")
    baseline = simulate(kernel, warp_scheduler="gto")
    lcs = simulate(make_kernel("kmeans"),
                   cta_scheduler=LCSScheduler(make_kernel("kmeans")))

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record.
"""

from .design import (Campaign, Design, DesignEnv, Factor, load_design,
                     parse_design, serialize_design)
from .core import (BCSScheduler, CTAScheduler, DynCTAScheduler,
                   LCSBCSScheduler, LCSDecision,
                   LCSScheduler, MixedCKE, OracleResult,
                   RoundRobinCTAScheduler, SequentialCKE, SMKEvenCKE,
                   SpatialCKE, StaticLimitCTAScheduler,
                   available_warp_schedulers, decide_n_star,
                   sweep_static_limits)
from .harness import (CheckpointPlan, CheckpointStore, CKEMetrics,
                      cke_metrics, compare_runs, simulate, validate_run)
from .sim import (GPU, GPUConfig, Instruction, InvariantSanitizer,
                  InvariantViolation, Kernel, KernelResourceError,
                  Op, RunResult, SimulationDeadlock, SimulationError,
                  SimulationTimeout, Snapshot)
from .verify import (FuzzCase, GoldenStore, cross_check, golden_matrix,
                     run_fuzz, verify_goldens)
from .workloads import (SUITE, BenchmarkInfo, TraceBuilder,
                        load_kernel_trace, make_kernel, save_kernel_trace,
                        suite_names)

__version__ = "1.0.0"

__all__ = [
    "BCSScheduler", "CTAScheduler", "DynCTAScheduler", "LCSBCSScheduler",
    "LCSDecision",
    "LCSScheduler", "MixedCKE", "CKEMetrics", "cke_metrics", "compare_runs",
    "validate_run",
    "load_kernel_trace", "save_kernel_trace",
    "OracleResult", "RoundRobinCTAScheduler", "SequentialCKE", "SMKEvenCKE",
    "SpatialCKE", "StaticLimitCTAScheduler", "available_warp_schedulers",
    "decide_n_star", "sweep_static_limits", "simulate", "GPU", "GPUConfig",
    "Instruction", "Kernel", "KernelResourceError", "Op", "RunResult",
    "SimulationDeadlock", "SimulationError", "SimulationTimeout", "SUITE",
    "BenchmarkInfo", "TraceBuilder", "make_kernel", "suite_names",
    "CheckpointPlan", "CheckpointStore", "InvariantSanitizer",
    "InvariantViolation", "Snapshot",
    "FuzzCase", "GoldenStore", "cross_check", "golden_matrix", "run_fuzz",
    "verify_goldens",
    "Campaign", "Design", "DesignEnv", "Factor", "load_design",
    "parse_design", "serialize_design",
    "__version__",
]
