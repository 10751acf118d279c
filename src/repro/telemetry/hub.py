"""The telemetry hub: probes, windowed sampling, and the event trace.

Layering
--------

Components never push metrics; they expose cheap read-only *snapshot*
interfaces (``Cache.telemetry_snapshot``, ``SM.warp_state_counts``,
``DRAMModel.telemetry_snapshot``, ...) and the hub *pulls* through
:class:`Probe` objects at window boundaries.  That inversion is what keeps
the disabled path zero-overhead: window closing is a rider of the run
loop's loop-top service check (``GPU._loop``), so a GPU without a windowed
hub pays nothing for it, and an enabled hub only pays one integer
comparison per loop iteration plus the per-window probe sweep.

Discrete occurrences (CTA dispatch/completion, kernel start/end, the LCS
monitoring decision, BCS block pairing, CKE phase transitions) are pushed
through :meth:`TelemetryHub.emit` by the layer that owns them; these are
per-CTA or rarer, never per-cycle.

Determinism contract
--------------------

The hub must never perturb simulation results: it schedules nothing on the
GPU event queue, mutates no component state, and samples only at loop-top
boundaries whose machine state is identical under event fast-forward and
``cycle_accurate=True`` (verified by ``tests/test_telemetry.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Mapping, Protocol

from .timeline import TimelineResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.gpu import GPU


class TelemetryError(RuntimeError):
    """Misuse of the telemetry subsystem (double attach, bad window...)."""


class Probe(Protocol):
    """The contract of the built-in metric sources
    (:func:`repro.telemetry.probes.default_probes`), each sampled at every
    window boundary.

    ``sample`` returns a flat mapping of column name to value for the
    window that just closed; it must return the same key set every call
    (columns are positional across windows) and must not mutate any
    simulator state.  Counter-style probes keep their own previous
    cumulative value and report per-window deltas.
    """

    name: str

    def sample(self, cycle: int, elapsed: int) -> Mapping[str, float]:
        ...  # pragma: no cover - protocol


@dataclass
class TraceEvent:
    """One structured trace record (JSON-safe payload values only)."""

    kind: str
    cycle: int
    payload: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {"kind": self.kind, "cycle": self.cycle,
                "payload": dict(self.payload)}


class TelemetryHub:
    """Collects one run's windowed samples and structured trace events.

    Create a hub, hand it to :class:`~repro.sim.gpu.GPU` (directly or via
    ``simulate(..., telemetry=hub)``), run, then read
    :meth:`timeline_result` / :attr:`events`.  A hub observes exactly one
    GPU and one run; build a fresh hub per simulation.

    Parameters
    ----------
    window:
        Sampling period in cycles (None disables windowed sampling).
    trace:
        Record :class:`TraceEvent`\\ s pushed through :meth:`emit`.
    """

    def __init__(self, *, window: int | None = None,
                 trace: bool = True) -> None:
        if window is not None and window < 1:
            raise TelemetryError("window must be >= 1 (or None to disable)")
        self.window = window
        self.trace_enabled = trace
        self.events: list[TraceEvent] = []
        self.probes: list[Probe] = []
        self.gpu: "GPU | None" = None
        self._cycles: list[int] = []
        self._columns: dict[str, list[float]] = {}
        self._ctas_per_sm: list[list[int]] = []
        self._window_start = 0

    def __repr__(self) -> str:
        return (f"TelemetryHub(window={self.window}, "
                f"trace={self.trace_enabled}, windows={len(self._cycles)}, "
                f"events={len(self.events)})")

    # ------------------------------------------------------------------ #
    # wiring
    def attach(self, gpu: "GPU") -> None:
        """Bind to a GPU (called by ``GPU.__init__``); installs the default
        probe set when windowed sampling is enabled."""
        if self.gpu is not None:
            raise TelemetryError(
                "hub already attached; create one hub per run")
        self.gpu = gpu
        if self.window is not None:
            from .probes import default_probes
            self.probes = default_probes(gpu)

    # ------------------------------------------------------------------ #
    # event trace
    def emit(self, kind: str, cycle: int, /, **payload: Any) -> None:
        """Record one structured event (no-op when tracing is disabled).

        Payload values must be JSON-native (str/int/float/bool/None and
        lists/dicts thereof) so traces survive worker transport and the
        persistent cache byte-identically.
        """
        if self.trace_enabled:
            self.events.append(TraceEvent(kind, cycle, payload))

    def trace_events(self) -> list[dict[str, Any]]:
        """The trace as plain dicts (JSON-safe, rides ``RunResult.meta``)."""
        return [event.to_dict() for event in self.events]

    # ------------------------------------------------------------------ #
    # windowed sampling (driven by GPU.run)
    def on_run_start(self, cycle: int) -> None:
        self._window_start = cycle
        self.emit("run.start", cycle)

    def close_window(self, boundary: int) -> None:
        """Sample every probe for the window ending at ``boundary``."""
        gpu = self.gpu
        elapsed = boundary - self._window_start
        if gpu is None or elapsed <= 0:
            return
        self._window_start = boundary
        self._cycles.append(boundary)
        self._ctas_per_sm.append([sm.used_slots for sm in gpu.sms])
        columns = self._columns
        for probe in self.probes:
            for name, value in probe.sample(boundary, elapsed).items():
                columns.setdefault(name, []).append(value)

    def on_run_end(self, cycle: int) -> None:
        """Flush the final (possibly partial) window and close the trace."""
        if self.window is not None and cycle > self._window_start:
            self.close_window(cycle)
        self.emit("run.end", cycle)

    # ------------------------------------------------------------------ #
    def timeline_result(self) -> TimelineResult | None:
        """The collected series (None when sampling was disabled)."""
        if self.window is None:
            return None
        return TimelineResult(
            window=self.window,
            cycles=list(self._cycles),
            columns={name: list(values)
                     for name, values in self._columns.items()},
            ctas_per_sm=[list(row) for row in self._ctas_per_sm],
        )
