"""Time-ordered event queue for the memory hierarchy.

The simulator is cycle-driven on the core side (warp schedulers and LD/ST
units tick every cycle) and event-driven on the memory side: interconnect
traversals, L2 lookups and DRAM completions are scheduled as future events,
and so are L1-hit and store wakes (WAIT_MEM -> READY) and policy timers
such as DynCTA's sampler.  Events at the same cycle fire in insertion
order (FIFO), which keeps runs deterministic and lets a sampler see the
memory wakes due before it.  ALU/SHARED completions do not come here: they
go into the GPU's wake calendar (:attr:`repro.sim.gpu.GPU._wake_cal`),
because no event callback can observe a WAIT_ALU -> READY change.

The queue is a calendar shaped like that wake calendar: one bucket of
``(callback, arg)`` entries per cycle, in scheduling order, plus a
min-heap of the distinct pending cycles.  A schedule into a cycle that
already has a bucket is one list append; only a new cycle touches the
heap.  :meth:`EventQueue.run_due` fires the due buckets cycle by cycle,
each in insertion order, including entries appended to a bucket while it
fires.  That is exactly the order of a ``(time, seq)`` heap, because
every schedule made inside ``run_due(now)`` is for a cycle ``>= now``:
nothing can land in a bucket earlier than the one firing.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable

Callback = Callable[[int, Any], None]


class EventQueue:
    """Per-cycle buckets of ``(callback, arg)`` plus a min-heap of their
    cycles (each pending cycle on the heap exactly once)."""

    __slots__ = ("_buckets", "_heap")

    def __init__(self) -> None:
        self._buckets: dict[int, list[tuple[Callback, Any]]] = {}
        self._heap: list[int] = []

    def __len__(self) -> int:
        return sum(map(len, self._buckets.values()))

    def __bool__(self) -> bool:
        return bool(self._heap)

    def schedule(self, time: int, callback: Callback, arg: Any = None) -> None:
        """Schedule ``callback(time, arg)`` to fire at ``time``."""
        bucket = self._buckets.get(time)
        if bucket is None:
            self._buckets[time] = [(callback, arg)]
            heappush(self._heap, time)
        else:
            bucket.append((callback, arg))

    def next_time(self) -> int | None:
        """Cycle of the earliest pending event, or None when empty."""
        return self._heap[0] if self._heap else None

    def run_due(self, now: int) -> int:
        """Fire every event scheduled at or before ``now``; return the count.

        A due bucket leaves the heap before it fires and the dict after,
        so a callback scheduling into the firing cycle appends to the
        bucket being iterated and fires in this same pass."""
        fired = 0
        heap = self._heap
        buckets = self._buckets
        while heap and heap[0] <= now:
            time = heappop(heap)
            bucket = buckets[time]
            for callback, arg in bucket:
                callback(now, arg)
            del buckets[time]
            fired += len(bucket)
        return fired
