"""``repro.sim.vector`` — the array-oriented (vector) simulator backend.

The object core (:mod:`repro.sim.gpu` / :mod:`repro.sim.sm`) advances the
machine one Python object at a time: every warp is a ``Warp`` instance,
every scheduler heap entry a ``(key, epoch, Warp)`` tuple, every wake a
method call on its SM.  That representation is the *reference*: easy to
read, easy to instrument, and the thing every other layer (refmodel,
goldens, fuzzer) validates against.

This package re-implements the per-SM hot path in struct-of-arrays form;
the run loop itself (:meth:`repro.sim.gpu.GPU._loop`) and its ALU wake
calendar are shared:

* **Columns, not objects** (:mod:`.columns`) — warp state lives in parallel
  per-SM columns (``state``/``pc``/``state_since``/``t_*``/``last_issue``)
  indexed by a dense *slot* id, with a numpy structured-array view for
  analysis tooling.  ``Warp`` objects still exist (policies and results
  read them at CTA completion) but are written back only at sync points.
* **Int-packed ready heaps** (:mod:`.sched`) — the per-scheduler lazy
  heaps hold single machine integers encoding ``(priority key, slot)``
  instead of tuples holding Python objects, and staleness is a column
  compare instead of an epoch attribute read.
* **Packed wake entries** (:mod:`.core` / :mod:`.gpu`) — an ALU/SHARED
  completion goes into the GPU's shared ``{cycle: [entries]}`` wake
  calendar as one ``sm_id << SLOT_BITS | slot`` int, which
  :meth:`VectorGPU._drain_wakes` decodes; the object core files the
  ``Warp`` itself.  L1-hit and store wakeups are ``EventQueue`` entries
  on both cores.

The contract is **bitwise parity**: for every supported configuration the
vector backend must produce a ``RunResult`` identical to the object core —
stats, timeline and telemetry.  ``repro-verify backend`` and the fuzzer's
``backend`` invariant enforce it; see docs/PERFORMANCE.md ("Backends").

Scope: the vector core supports the ``lrr``/``gto``/``baws`` warp
schedulers (all CTA policies work — they sit above the SM and are shared).
``two-level``/``swl`` keep per-warp membership state with object identity
semantics and stay on the object core; :func:`vector_supported` reports
the split so callers can route.
"""

from __future__ import annotations

from ..gpu import SimulationError

#: Warp schedulers the vector core reproduces bitwise.  ``two-level`` and
#: ``swl`` mutate per-warp membership sets during ``pick`` (object-identity
#: semantics); they stay on the object reference core.
VECTOR_WARP_SCHEDULERS = frozenset({"lrr", "gto", "baws"})


class VectorBackendError(SimulationError):
    """The vector backend cannot run this configuration (unsupported
    scheduler, missing numpy, or a packed-key capacity limit)."""


def ensure_numpy():
    """Import and return numpy, or raise an actionable error.

    The vector backend's analysis views (:meth:`WarpColumns.snapshot`) are
    numpy structured arrays, so the backend declares numpy as a hard
    dependency up front — at ``VectorGPU`` construction, not at first use —
    and with a remediation hint instead of a bare ImportError traceback.
    """
    try:
        import numpy
    except ImportError as exc:  # pragma: no cover - depends on environment
        raise VectorBackendError(
            "the vector backend requires numpy, which is not installed; "
            "install numpy or re-run with --backend object"
        ) from exc
    return numpy


def vector_supported(warp: object) -> bool:
    """True if the vector backend supports this warp-scheduler descriptor.

    Accepts the harness' warp descriptors: a plain name string or a
    ``("swl", limit)`` style tuple (tuples are always object-only).
    """
    return isinstance(warp, str) and warp in VECTOR_WARP_SCHEDULERS


from .gpu import VectorGPU  # noqa: E402  (circular-free; re-export)

__all__ = [
    "VECTOR_WARP_SCHEDULERS",
    "VectorBackendError",
    "VectorGPU",
    "ensure_numpy",
    "vector_supported",
]
