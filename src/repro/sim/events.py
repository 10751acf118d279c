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
"""

from __future__ import annotations

import heapq
from itertools import count
from typing import Any, Callable


class EventQueue:
    """A min-heap of ``(time, seq, callback, arg)`` entries."""

    __slots__ = ("_heap", "_seq")

    def __init__(self) -> None:
        self._heap: list[tuple[int, int, Callable[[int, Any], None], Any]] = []
        self._seq = count()

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def schedule(self, time: int, callback: Callable[[int, Any], None], arg: Any = None) -> None:
        """Schedule ``callback(time, arg)`` to fire at ``time``."""
        heapq.heappush(self._heap, (time, next(self._seq), callback, arg))

    def next_time(self) -> int | None:
        """Cycle of the earliest pending event, or None when empty."""
        return self._heap[0][0] if self._heap else None

    def run_due(self, now: int) -> int:
        """Fire every event scheduled at or before ``now``; return the count."""
        fired = 0
        heap = self._heap
        heappop = heapq.heappop
        while heap and heap[0][0] <= now:
            _, _, callback, arg = heappop(heap)
            callback(now, arg)
            fired += 1
        return fired
