"""CTA (thread block) scheduling policies — baseline machinery.

The CTA scheduler is the global hardware unit that assigns pending CTAs to
SMs with free resources.  The baseline (:class:`RoundRobinCTAScheduler`)
models the conventional GPU behaviour the paper starts from: dispatch CTAs
in grid order, one per SM in round-robin, as many as each SM's occupancy
allows — so consecutive CTAs land on *different* SMs and every SM runs the
maximum number of CTAs it can hold.

Policy subclasses shape dispatch by overriding:

* :meth:`CTAScheduler.limit` — per-(SM, kernel) cap on resident CTAs
  (LCS throttles through this);
* :meth:`CTAScheduler.eligible_runs` — which kernels may dispatch now
  (concurrent-kernel policies gate through this);
* :meth:`CTAScheduler._fill_run` — the dispatch loop itself
  (BCS dispatches whole blocks of consecutive CTAs).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from ..sim.kernel import Kernel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.cta import CTA
    from ..sim.gpu import GPU, KernelRun
    from ..sim.sm import SM


class CTAScheduler:
    """Base policy: round-robin dispatch up to each kernel's occupancy."""

    name = "rr"

    __slots__ = ("kernels", "gpu", "runs", "_rr_ptr", "_need_fill")

    def __init__(self, kernels: Kernel | Sequence[Kernel]) -> None:
        if isinstance(kernels, Kernel):
            kernels = [kernels]
        if not kernels:
            raise ValueError("at least one kernel is required")
        self.kernels: list[Kernel] = list(kernels)
        self.gpu: "GPU | None" = None
        self.runs: list["KernelRun"] = []
        self._rr_ptr = 0
        self._need_fill = True

    # ------------------------------------------------------------------ #
    def bind(self, gpu: "GPU") -> None:
        self.gpu = gpu
        self.runs = gpu.launch(self.kernels)
        self._need_fill = True
        self.on_bound()

    def on_bound(self) -> None:
        """Subclass hook, runs once after kernels are launched."""

    @property
    def done(self) -> bool:
        return all(run.done for run in self.runs)

    # -- policy hooks ---------------------------------------------------- #
    def limit(self, sm: "SM", run: "KernelRun") -> int:
        """Max CTAs of this kernel allowed on this SM (default: occupancy)."""
        return run.occupancy

    def eligible_runs(self) -> Iterable["KernelRun"]:
        return (run for run in self.runs if run.pending and run.eligible)

    # -- dispatch loop ----------------------------------------------------#
    def fill(self, now: int) -> None:
        """Dispatch as many CTAs as policy and resources allow right now."""
        if not self._need_fill:
            return
        for run in self.eligible_runs():
            self._fill_run(run, now)
        self._need_fill = False

    def request_fill(self) -> None:
        """Arm :meth:`fill` (called when capacity may have opened up)."""
        self._need_fill = True

    def _fill_run(self, run: "KernelRun", now: int) -> None:
        sms = self.gpu.sms
        num_sms = len(sms)
        rejections = 0
        while run.pending and rejections < num_sms:
            sm = sms[self._rr_ptr % num_sms]
            self._rr_ptr += 1
            if self._can_dispatch(sm, run):
                self.gpu.dispatch(sm, run, None, now)
                rejections = 0
            else:
                rejections += 1

    def _can_dispatch(self, sm: "SM", run: "KernelRun") -> bool:
        return (sm.active_count(run.kernel_id) < self.limit(sm, run)
                and sm.can_accept(run))

    # -- completion hook --------------------------------------------------#
    def on_cta_complete(self, sm: "SM", cta: "CTA", now: int) -> None:
        self._need_fill = True

    # -- reporting ----------------------------------------------------------
    def limits_snapshot(self) -> dict[int, int | None]:
        """Final per-SM CTA limits, for RunResult (None = occupancy only)."""
        if self.gpu is None:
            return {}
        return {sm.sm_id: None for sm in self.gpu.sms}


class RoundRobinCTAScheduler(CTAScheduler):
    """The conventional baseline, by its explicit name."""

    name = "rr"

    __slots__ = ()


class DepthFirstCTAScheduler(CTAScheduler):
    """Fill one SM to its limit before moving to the next.

    The ablation partner of the round-robin baseline: depth-first dispatch
    *accidentally* co-locates consecutive CTAs (like BCS, but without the
    block bookkeeping or the refill guarantee — after the initial fill,
    replacement CTAs go wherever a slot frees, so the co-location decays
    over the run).  Comparing RR / depth-first / BCS isolates how much of
    BCS's win is initial placement vs sustained pairing (experiment E21).
    """

    name = "depth-first"

    __slots__ = ()

    def _fill_run(self, run: "KernelRun", now: int) -> None:
        for sm in self.gpu.sms:
            while run.pending and self._can_dispatch(sm, run):
                self.gpu.dispatch(sm, run, None, now)
            if not run.pending:
                return


class StaticLimitCTAScheduler(CTAScheduler):
    """Round-robin dispatch with a fixed per-SM CTA cap per kernel.

    ``limit_per_sm`` is either one int (applied to every kernel) or a mapping
    from kernel name to int.  This is the knob the paper sweeps to show that
    maximum occupancy is not optimal (motivation figure), and the oracle
    search in :mod:`repro.core.oracle` uses it to find the static best.
    """

    name = "static"

    __slots__ = ("_limits",)

    def __init__(self, kernels: Kernel | Sequence[Kernel],
                 limit_per_sm: int | dict[str, int]) -> None:
        super().__init__(kernels)
        if isinstance(limit_per_sm, Mapping):
            limits = dict(limit_per_sm)
        else:
            limits = {kernel.name: limit_per_sm for kernel in self.kernels}
        for kernel in self.kernels:
            value = limits.get(kernel.name)
            if value is None:
                raise ValueError(f"no CTA limit given for kernel {kernel.name!r}")
            # bool is an int subclass, but True would run as limit 1 under
            # another job fingerprint than ("static", 1).
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"CTA limit for {kernel.name!r} must be an "
                                 f"int, got {value!r}")
            if value < 1:
                raise ValueError(f"CTA limit for {kernel.name!r} must be >= 1")
        self._limits = limits

    def limit(self, sm: "SM", run: "KernelRun") -> int:
        return min(run.occupancy, self._limits[run.kernel.name])

    def limits_snapshot(self) -> dict[int, int | None]:
        if self.gpu is None:
            return {}
        if len(self.runs) == 1:
            run = self.runs[0]
            value = min(run.occupancy, self._limits[run.kernel.name])
            return {sm.sm_id: value for sm in self.gpu.sms}
        return super().limits_snapshot()
