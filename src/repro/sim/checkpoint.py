"""Versioned snapshot/restore of a mid-run simulation.

A :class:`Snapshot` captures the *entire* live simulation state — GPU cycle
and event queue, every SM's warp/CTA/resource state, warp- and
CTA-scheduler internals (LCS monitor, BCS pairing, CKE phases), L1/L2 tag
arrays and MSHRs, DRAM channel queues, statistics, and the telemetry hub's
window position and trace — as one pickle of the ``GPU`` object graph.
The whole machine is plain Python state reachable from the ``GPU`` root
(the scheduler hangs off ``gpu.cta_scheduler``, event callbacks are bound
methods, which pickle by reference through the shared memo), so a single
graph dump is complete and internally consistent by construction.

The one thing that cannot travel by value is a :class:`~.kernel.Kernel`:
its trace builder is a closure over the workload generator.  Kernels are
therefore *externalized* — the pickler writes a persistent id
``("repro.kernel", kernel_id)`` wherever a kernel appears, and
:meth:`Snapshot.restore` re-injects fresh kernel objects rebuilt
deterministically from the job description (same name/scale/seed =>
byte-identical traces, guaranteed by the workload layer's stateless
seeding).  Everything *derived* from a kernel at runtime (warp programs,
per-run occupancy) is captured by value, so the restored machine never
re-runs the builder mid-flight.

The resume contract (property-tested in ``tests/test_checkpoint.py``): a
run snapshotted at an arbitrary cycle and resumed in a fresh process
produces **bitwise-identical** final statistics to the uninterrupted run.
"""

from __future__ import annotations

import io
import pickle
from dataclasses import dataclass
from typing import Callable, Sequence

from .gpu import GPU, SimulationError
from .kernel import Kernel

#: Snapshot payload protocol version.  Bump whenever the simulator's object
#: graph changes shape; old snapshots then fail restore with a typed error
#: instead of resuming into a subtly-wrong machine.
CHECKPOINT_VERSION = 5

#: Persistent-id tag for externalized kernels.
_KERNEL_TAG = "repro.kernel"


class CheckpointError(SimulationError):
    """A snapshot could not be taken, validated or restored."""


class _KernelPickler(pickle.Pickler):
    """Pickles the GPU graph with kernels replaced by persistent ids."""

    def __init__(self, file, kernel_ids: dict[int, int]) -> None:
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
        self._kernel_ids = kernel_ids

    def persistent_id(self, obj):
        if isinstance(obj, Kernel):
            kernel_id = self._kernel_ids.get(id(obj))
            if kernel_id is None:
                raise CheckpointError(
                    f"kernel {obj.name!r} is referenced by live state but "
                    f"was not launched on this GPU")
            return (_KERNEL_TAG, kernel_id)
        return None


class _KernelUnpickler(pickle.Unpickler):
    """Resolves kernel persistent ids against freshly rebuilt kernels."""

    def __init__(self, file, kernels: Sequence[Kernel]) -> None:
        super().__init__(file)
        self._kernels = kernels

    def persistent_load(self, pid):
        try:
            tag, kernel_id = pid
        except (TypeError, ValueError):
            raise CheckpointError(f"malformed persistent id {pid!r}") from None
        if tag != _KERNEL_TAG or not 0 <= kernel_id < len(self._kernels):
            raise CheckpointError(
                f"snapshot references kernel #{kernel_id}, but only "
                f"{len(self._kernels)} kernel(s) were provided")
        return self._kernels[kernel_id]


@dataclass(frozen=True)
class Snapshot:
    """One captured machine state, ready to persist or resume.

    ``payload`` is the kernel-externalized pickle of the ``GPU`` graph;
    ``kernels`` records the launched kernel names (in kernel-id order) so a
    restore against the wrong workload fails loudly instead of resuming a
    different simulation.
    """

    version: int
    cycle: int
    kernels: tuple[str, ...]
    payload: bytes

    @classmethod
    def capture(cls, gpu: GPU) -> "Snapshot":
        """Snapshot a GPU mid-run (``gpu.cycle`` must be current)."""
        if not gpu.runs:
            raise CheckpointError("nothing to snapshot: no kernels launched")
        kernel_ids = {id(run.kernel): run.kernel_id for run in gpu.runs}
        buffer = io.BytesIO()
        try:
            _KernelPickler(buffer, kernel_ids).dump(gpu)
        except CheckpointError:
            raise
        except Exception as error:
            raise CheckpointError(
                f"simulation state is not snapshottable: "
                f"{type(error).__name__}: {error}") from error
        return cls(version=CHECKPOINT_VERSION, cycle=gpu.cycle,
                   kernels=tuple(run.kernel.name for run in gpu.runs),
                   payload=buffer.getvalue())

    def restore(self, kernels: Sequence[Kernel]) -> GPU:
        """Rebuild the captured GPU, re-injecting the given kernels.

        ``kernels`` must be rebuilt from the same job description that
        produced the snapshotted run (same names, scales and seed, in
        launch order); resume then continues with ``gpu.run(...,
        resume_from=snapshot)``.
        """
        if self.version != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"snapshot version {self.version} != supported "
                f"{CHECKPOINT_VERSION}")
        kernels = list(kernels)
        names = tuple(kernel.name for kernel in kernels)
        if names != self.kernels:
            raise CheckpointError(
                f"snapshot was taken with kernels {self.kernels}, "
                f"got {names}")
        try:
            gpu = _KernelUnpickler(io.BytesIO(self.payload), kernels).load()
        except CheckpointError:
            raise
        except Exception as error:
            raise CheckpointError(
                f"corrupt snapshot payload: {type(error).__name__}: "
                f"{error}") from error
        if not isinstance(gpu, GPU) or gpu.cycle != self.cycle:
            raise CheckpointError(
                f"restored object does not match snapshot header "
                f"(cycle {getattr(gpu, 'cycle', None)} != {self.cycle})")
        if gpu.cta_scheduler is None:
            raise CheckpointError("snapshot has no bound CTA scheduler; "
                                  "it was not taken from a running GPU")
        return gpu


class CheckpointRecorder:
    """Periodically captures Snapshots and hands them to a sink.

    The sink (typically ``CheckpointStore.put`` curried with the job
    fingerprint) returns True when the snapshot was durably stored; a
    failing sink is counted, never raised — losing a checkpoint must not
    kill the run it was meant to protect.
    """

    def __init__(self, interval: int,
                 sink: Callable[[Snapshot], bool]) -> None:
        if interval < 1:
            raise ValueError(f"checkpoint interval must be >= 1, "
                             f"got {interval}")
        self.interval = interval
        self.sink = sink
        self.last_saved: int | None = None
        self.saves = 0
        self.save_errors = 0

    def save(self, gpu: GPU, cycle: int) -> int | None:
        """Capture + persist; returns the newest durably-saved cycle."""
        try:
            snapshot = Snapshot.capture(gpu)
            stored = bool(self.sink(snapshot))
        except Exception:   # noqa: BLE001 - checkpointing is best-effort
            stored = False
        if stored:
            self.saves += 1
            self.last_saved = cycle
        else:
            self.save_errors += 1
        return self.last_saved
