"""LCS — Lazy CTA Scheduling (the paper's first mechanism).

LCS finds, online, the per-core CTA count that actually maximises
performance, exploiting the interaction with a *greedy* warp scheduler:

1. **Monitoring phase** — launch the kernel at maximum occupancy, as the
   baseline would.  Under greedy-then-oldest (GTO) warp scheduling, warps of
   younger CTAs only capture issue slots and LD/ST-queue slots when every
   older CTA is stalled, so the per-CTA issued-instruction counters
   collected on one core form a signature of how many CTAs the core *needs*
   to hide latency.
2. **Decision** — when the first CTA completes (end of the monitoring
   period), derive N* from the counters (rules below).
3. **Throttling phase** — no CTAs are killed ("lazy"); the scheduler simply
   stops refilling cores beyond N*, so each core drains down to N* resident
   CTAs and stays there.

Decision rules
--------------

``tail`` (default)
    The busiest counter belongs to the CTA that just *completed* — its
    count is simply its whole program, so it says nothing about marginal
    utility.  The informative signal is the relative progress of the
    *runner-up* CTAs: N* = 1 + the number of runner-ups whose count is at
    least ``tail_ratio`` (default 50 %) of the best runner-up.  A flat
    runner-up field ("everyone is pulling equal weight") keeps maximum
    occupancy; a steep drop-off throttles at the cliff.

``coverage``
    N* = the smallest n such that the n busiest CTAs issued at least
    ``coverage`` of all instructions in the monitoring period.

``threshold``
    N* = the number of CTAs whose count is at least ``threshold`` of the
    busiest CTA's count.  Simplest; sensitive to the signature's shape
    (kept for the E9 sensitivity study).

Guards
------

Issue counts concentrate under a greedy scheduler even when every CTA is
useful, in two situations the monitor detects and refuses to act on:

* **Utilization guard.**  Compute-bound kernels saturate the issue slots
  with few warps *because the older warps never stall*, not because the
  younger ones are useless.  The monitor reads the core's issue-slot
  utilization — instructions issued per scheduler slot during monitoring —
  and skips throttling when it exceeds ``util_guard`` (default 55 %).
* **Barrier fallback.**  In barrier-synchronized kernels a CTA's progress
  is quantised to barrier phases: the leading CTA races ahead phase by
  phase while its siblings' counters freeze at the barrier, so the
  signature's *head* is wildly inflated and the tail rule (which keys off
  the best runner-up) mis-throttles.  When the monitored CTAs executed
  ``barrier_guard`` or more barriers per warp, the monitor switches to the
  coverage rule, which integrates the whole distribution and is far less
  sensitive to head distortion (calibrated in experiment E9).

All three counters (per-CTA issued instructions, issue-slot usage, per-CTA
barrier count) are trivially cheap in hardware.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from ..sim.kernel import Kernel
from .cta_schedulers import CTAScheduler

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.cta import CTA
    from ..sim.gpu import KernelRun
    from ..sim.sm import SM

#: Default runner-up ratio for the ``tail`` rule.
DEFAULT_TAIL_RATIO = 0.50

#: Default coverage for the ``coverage`` rule.
DEFAULT_COVERAGE = 0.90

#: Default issue-share threshold for the ``threshold`` rule.
DEFAULT_THRESHOLD = 0.18

#: Issue-slot utilization above which the kernel is considered
#: compute-bound and LCS does not throttle.
DEFAULT_UTIL_GUARD = 0.55

#: Barriers executed per warp (during monitoring) above which the issue
#: signature is considered phase-distorted and the decision falls back to
#: the coverage rule.
DEFAULT_BARRIER_GUARD = 1.5

RULES = ("tail", "coverage", "threshold")

_RULE_DEFAULTS = {
    "tail": DEFAULT_TAIL_RATIO,
    "coverage": DEFAULT_COVERAGE,
    "threshold": DEFAULT_THRESHOLD,
}


def decide_n_star_tail(issue_counts: Sequence[int], tail_ratio: float,
                       occupancy: int) -> int:
    """1 + the number of runner-up CTAs within ``tail_ratio`` of the best
    runner-up (the completed CTA's own count is excluded as uninformative)."""
    if not 0.0 < tail_ratio <= 1.0:
        raise ValueError("tail_ratio must be in (0, 1]")
    if len(issue_counts) <= 1:
        return occupancy
    ordered = sorted(issue_counts, reverse=True)
    tail = ordered[1:]
    best = tail[0]
    if best <= 0:
        return 1
    cutoff = tail_ratio * best
    significant = sum(1 for count in tail if count >= cutoff)
    return max(1, min(1 + significant, occupancy))


def decide_n_star_coverage(issue_counts: Sequence[int], coverage: float,
                           occupancy: int) -> int:
    """Smallest n whose busiest-n CTAs cover ``coverage`` of all issues."""
    if not 0.0 < coverage <= 1.0:
        raise ValueError("coverage must be in (0, 1]")
    if not issue_counts:
        return occupancy
    ordered = sorted(issue_counts, reverse=True)
    total = sum(ordered)
    if total <= 0:
        return occupancy
    target = coverage * total
    running = 0
    for n, count in enumerate(ordered, start=1):
        running += count
        if running >= target:
            return max(1, min(n, occupancy))
    return occupancy  # pragma: no cover - running always reaches total


def decide_n_star_threshold(issue_counts: Sequence[int], threshold: float,
                            occupancy: int) -> int:
    """Count of CTAs that issued >= threshold x the busiest CTA's count."""
    if not 0.0 < threshold <= 1.0:
        raise ValueError("threshold must be in (0, 1]")
    if not issue_counts:
        return occupancy
    busiest = max(issue_counts)
    if busiest <= 0:
        return occupancy
    cutoff = threshold * busiest
    significant = sum(1 for count in issue_counts if count >= cutoff)
    return max(1, min(significant, occupancy))


def decide_n_star(issue_counts: Sequence[int], occupancy: int, *,
                  rule: str = "tail",
                  param: float | None = None) -> int:
    """Dispatch to the selected decision rule."""
    if rule not in RULES:
        raise ValueError(f"unknown LCS rule {rule!r}; available: {RULES}")
    if param is None:
        param = _RULE_DEFAULTS[rule]
    if rule == "tail":
        return decide_n_star_tail(issue_counts, param, occupancy)
    if rule == "coverage":
        return decide_n_star_coverage(issue_counts, param, occupancy)
    return decide_n_star_threshold(issue_counts, param, occupancy)


@dataclass(frozen=True, slots=True)
class LCSDecision:
    """Everything the monitoring phase learned (kept for E2/E4 reporting)."""

    n_star: int
    occupancy: int
    decided_cycle: int
    monitor_sm: int
    issue_counts: tuple[int, ...]   # descending
    rule: str
    param: float
    utilization: float              # monitor core's issue-slot utilization
    util_guard: float
    barriers_per_warp: float = 0.0  # monitored CTAs' barrier rate
    barrier_guard: float = DEFAULT_BARRIER_GUARD

    @property
    def throttled(self) -> bool:
        return self.n_star < self.occupancy

    @property
    def guard_tripped(self) -> bool:
        """True when a guard changed how the decision was made."""
        return self.guard_reason is not None

    @property
    def guard_reason(self) -> str | None:
        """'utilization' = throttling suppressed; 'barriers' = decision
        fell back to the coverage rule; None = the configured rule ran."""
        if self.utilization >= self.util_guard:
            return "utilization"
        if self.barriers_per_warp >= self.barrier_guard:
            return "barriers"
        return None


class LCSMonitor:
    """Reusable monitoring/decision logic (shared with mixed CKE)."""

    __slots__ = ("rule", "param", "util_guard", "barrier_guard",
                 "monitor_sm", "decision")

    def __init__(self, *, rule: str = "tail", param: float | None = None,
                 util_guard: float = DEFAULT_UTIL_GUARD,
                 barrier_guard: float = DEFAULT_BARRIER_GUARD,
                 monitor_sm: int | None = None) -> None:
        if rule not in RULES:
            raise ValueError(f"unknown LCS rule {rule!r}; available: {RULES}")
        if not 0.0 <= util_guard <= 1.0:
            raise ValueError("util_guard must be in [0, 1]")
        if barrier_guard < 0.0:
            raise ValueError("barrier_guard must be non-negative")
        param = _RULE_DEFAULTS[rule] if param is None else param
        # The rule functions check this too, but only once monitoring
        # ends; a bad value must fail here, before the run starts.
        if not isinstance(param, (int, float)) or not 0.0 < param <= 1.0:
            raise ValueError(f"LCS {rule} param must be a number in "
                             f"(0, 1], got {param!r}")
        self.rule = rule
        self.param = param
        self.util_guard = util_guard
        self.barrier_guard = barrier_guard
        self.monitor_sm = monitor_sm   # None = first CTA completion anywhere
        self.decision: LCSDecision | None = None

    def announce(self, gpu) -> None:
        """Trace the monitoring-phase start (call from a policy's on_bound)."""
        hub = gpu.telemetry
        if hub is not None:
            hub.emit("lcs.monitor", gpu.cycle, rule=self.rule,
                     param=self.param, util_guard=self.util_guard,
                     barrier_guard=self.barrier_guard,
                     monitor_sm=self.monitor_sm)

    def observe_completion(self, sm: "SM", cta: "CTA", run: "KernelRun",
                           now: int) -> LCSDecision | None:
        """Feed a CTA completion; returns the decision if this one ends the
        monitoring period."""
        if self.decision is not None:
            return None
        if cta.run is not run:
            return None
        if self.monitor_sm is not None and sm.sm_id != self.monitor_sm:
            return None
        monitored = [cta] + [peer for peer in sm.active_ctas
                             if peer.run is run]
        counts = [peer.issued_instrs for peer in monitored]
        issue_slots = max(1, now * sm.config.issue_width)
        utilization = min(1.0, sm.issued / issue_slots)
        total_warps = sum(peer.num_warps for peer in monitored)
        barriers_per_warp = (sum(peer.issued_barriers for peer in monitored)
                             / max(1, total_warps))
        if utilization >= self.util_guard:
            n_star = run.occupancy
        elif barriers_per_warp >= self.barrier_guard:
            n_star = decide_n_star_coverage(counts, DEFAULT_COVERAGE,
                                            run.occupancy)
        else:
            n_star = decide_n_star(counts, run.occupancy,
                                   rule=self.rule, param=self.param)
        self.decision = LCSDecision(
            n_star=n_star,
            occupancy=run.occupancy,
            decided_cycle=now,
            monitor_sm=sm.sm_id,
            issue_counts=tuple(sorted(counts, reverse=True)),
            rule=self.rule,
            param=self.param,
            utilization=utilization,
            util_guard=self.util_guard,
            barriers_per_warp=barriers_per_warp,
            barrier_guard=self.barrier_guard,
        )
        # Every LCS-monitoring policy (LCS, LCS+BCS, mixed CKE) funnels
        # through here, so the decision is traced in one place.
        hub = sm.gpu.telemetry
        if hub is not None:
            decision = self.decision
            hub.emit("lcs.decision", now, kernel=run.kernel.name,
                     n_star=decision.n_star, occupancy=decision.occupancy,
                     monitor_sm=decision.monitor_sm, rule=decision.rule,
                     param=decision.param,
                     utilization=decision.utilization,
                     guard=decision.guard_reason,
                     issue_counts=list(decision.issue_counts))
        return self.decision


class LCSScheduler(CTAScheduler):
    """Lazy CTA scheduling for a single kernel."""

    name = "lcs"

    __slots__ = ("monitor",)

    def __init__(self, kernel: Kernel | Sequence[Kernel], *,
                 rule: str = "tail", param: float | None = None,
                 threshold: float | None = None,
                 util_guard: float = DEFAULT_UTIL_GUARD,
                 monitor_sm: int | None = None) -> None:
        super().__init__(kernel)
        if len(self.kernels) != 1:
            raise ValueError(
                "LCSScheduler schedules a single kernel; use MixedCKE for "
                "multi-kernel execution")
        if threshold is not None:
            if param is not None:
                raise ValueError("pass either threshold= or param=, not both")
            rule, param = "threshold", threshold
        self.monitor = LCSMonitor(rule=rule, param=param,
                                  util_guard=util_guard,
                                  monitor_sm=monitor_sm)

    @property
    def decision(self) -> LCSDecision | None:
        return self.monitor.decision

    def on_bound(self) -> None:
        self.monitor.announce(self.gpu)

    def limit(self, sm: "SM", run: "KernelRun") -> int:
        decision = self.monitor.decision
        if decision is None:
            return run.occupancy        # monitoring phase: maximum occupancy
        return min(run.occupancy, decision.n_star)

    def on_cta_complete(self, sm: "SM", cta: "CTA", now: int) -> None:
        super().on_cta_complete(sm, cta, now)
        self.monitor.observe_completion(sm, cta, self.runs[0], now)

    def limits_snapshot(self) -> dict[int, int | None]:
        if self.gpu is None:
            return {}
        decision = self.monitor.decision
        value = None if decision is None else decision.n_star
        return {sm.sm_id: value for sm in self.gpu.sms}
