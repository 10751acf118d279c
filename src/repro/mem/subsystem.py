"""The shared memory system behind the per-SM L1s.

Wires together: a fixed-latency interconnect (SM <-> L2 partition), the
banked L2 (one :class:`~repro.mem.cache.Cache` per partition, with MSHRs and
an input queue that absorbs MSHR-full backpressure), and the DRAM channel
model.  All timing flows through the GPU's event queue.

Request lifecycle for a load that misses everywhere::

    SM L1 miss --icnt--> L2 lookup (miss, MSHR alloc) --> DRAM read
      --> L2 fill --icnt--> SM.mem_response (L1 fill, warps wake)

Stores are write-through from L1 and write-no-allocate at L2: a store that
hits in L2 is absorbed there; a store that misses is forwarded to DRAM.
Stores never generate responses (the SM considers a store complete once the
LD/ST unit accepted its transactions).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

from ..sim.config import GPUConfig
from ..sim.events import EventQueue
from ..sim.stats import CacheStats
from .address import l2_bank_of
from .cache import Access, Cache
from .dram import DRAMModel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.sm import SM


class MemorySubsystem:
    """Everything below the L1s: interconnect, L2 banks, DRAM."""

    __slots__ = ("_config", "_events", "_icnt", "_l2_latency", "_icnt_bw",
                 "_icnt_next_free", "l2_banks", "_bank_queues", "dram")

    def __init__(self, config: GPUConfig, events: EventQueue) -> None:
        self._config = config
        self._events = events
        self._icnt = config.icnt_latency
        self._l2_latency = config.l2_latency
        # Optional interconnect bandwidth model: when enabled, each
        # direction carries config.icnt_bw_per_direction transactions per
        # cycle; excess traffic queues (serialisation before the fixed
        # pipeline latency).
        self._icnt_bw = config.icnt_bw_per_direction
        self._icnt_next_free = [0.0, 0.0]   # [to L2, from L2]
        self.l2_banks = [
            Cache(
                f"L2[{bank}]",
                num_sets=config.l2_bank_num_sets,
                assoc=config.l2_assoc,
                mshr_entries=config.l2_mshr_entries,
                mshr_max_merge=config.l2_mshr_max_merge,
            )
            for bank in range(config.l2_num_banks)
        ]
        # Requests rejected by a full L2 MSHR wait here and are retried on
        # every fill of that bank.
        self._bank_queues: list[deque[tuple["SM", int]]] = [
            deque() for _ in range(config.l2_num_banks)
        ]
        self.dram = DRAMModel(config, events)

    # ------------------------------------------------------------------ #
    def _icnt_arrival(self, direction: int, start: int) -> int:
        """Cycle a transaction injected at ``start`` crosses the network
        under the bandwidth model.  Without it (``icnt_bw_per_direction``
        0) the callers add the fixed latency inline."""
        slot = max(float(start), self._icnt_next_free[direction])
        self._icnt_next_free[direction] = slot + 1.0 / self._icnt_bw
        return int(slot) + self._icnt

    # ------------------------------------------------------------------ #
    # SM-facing API (called by the LD/ST unit on an L1 miss / write-through)
    def load(self, sm: "SM", line: int, now: int) -> None:
        """Forward an L1 load miss toward L2."""
        arrival = (self._icnt_arrival(0, now) if self._icnt_bw
                   else now + self._icnt)
        self._events.schedule(arrival, self._on_l2_load, (sm, line))

    def store(self, sm: "SM", line: int, now: int) -> None:
        """Forward a write-through store toward L2."""
        arrival = (self._icnt_arrival(0, now) if self._icnt_bw
                   else now + self._icnt)
        self._events.schedule(arrival, self._on_l2_store, (sm, line))

    # ------------------------------------------------------------------ #
    def _on_l2_load(self, now: int, arg: tuple["SM", int]) -> None:
        sm, line = arg
        bank = l2_bank_of(line, len(self.l2_banks))
        self._l2_lookup(now, bank, sm, line, queue_on_stall=True)

    def _l2_lookup(self, now: int, bank: int, sm: "SM", line: int,
                   queue_on_stall: bool) -> bool:
        """Run one L2 load lookup; returns False if it stalled (MSHR full)."""
        cache = self.l2_banks[bank]
        outcome = cache.lookup_load(line, sm)
        if outcome is Access.HIT:
            start = now + self._l2_latency
            arrival = (self._icnt_arrival(1, start) if self._icnt_bw
                       else start + self._icnt)
            self._events.schedule(arrival, self._deliver, (sm, line))
            return True
        if outcome is Access.MISS:
            self.dram.read(line, now + self._l2_latency,
                           self._on_dram_fill, (bank, line))
            return True
        if outcome is Access.MERGED:
            return True
        # Access.STALL: the bank's MSHR (or merge capacity) is exhausted.
        if queue_on_stall:
            self._bank_queues[bank].append((sm, line))
        return False

    def _on_l2_store(self, now: int, arg: tuple["SM", int]) -> None:
        sm, line = arg
        bank = l2_bank_of(line, len(self.l2_banks))
        cache = self.l2_banks[bank]
        if not cache.write_probe(line):
            # Write-no-allocate: L2 miss goes straight to DRAM.
            self.dram.write(line, now + self._l2_latency)

    def _on_dram_fill(self, now: int, arg: tuple[int, int]) -> None:
        bank, line = arg
        cache = self.l2_banks[bank]
        for sm in cache.fill(line):
            arrival = (self._icnt_arrival(1, now) if self._icnt_bw
                       else now + self._icnt)
            self._events.schedule(arrival, self._deliver, (sm, line))
        if self._bank_queues[bank]:
            self._drain_bank_queue(now, bank)

    def _drain_bank_queue(self, now: int, bank: int) -> None:
        """Retry queued requests now that an MSHR entry freed up."""
        queue = self._bank_queues[bank]
        while queue:
            sm, line = queue[0]
            if not self._l2_lookup(now, bank, sm, line, queue_on_stall=False):
                break
            queue.popleft()

    @staticmethod
    def _deliver(now: int, arg: tuple["SM", int]) -> None:
        sm, line = arg
        sm.mem_response(now, line)

    # ------------------------------------------------------------------ #
    def l2_stats(self) -> CacheStats:
        """Aggregate counters across all L2 banks."""
        total = CacheStats()
        for bank in self.l2_banks:
            total.add(bank.stats)
        return total

    @property
    def queued_requests(self) -> int:
        return sum(len(q) for q in self._bank_queues)

    def telemetry_snapshot(self) -> dict:
        """Aggregate L2 counters + queue pressure for telemetry probes.

        The memory system's reporting interface (pure read): sums the
        per-bank cache snapshots and adds the bank-queue backlog (requests
        parked on full MSHRs, the backpressure signal).
        """
        accesses = hits = misses = merges = stalls = occupancy = 0
        for bank in self.l2_banks:
            snap = bank.telemetry_snapshot()
            accesses += snap["accesses"]
            hits += snap["hits"]
            misses += snap["misses"]
            merges += snap["merges"]
            stalls += snap["mshr_stalls"]
            occupancy += snap["mshr_occupancy"]
        return {
            "accesses": accesses,
            "hits": hits,
            "misses": misses,
            "merges": merges,
            "mshr_stalls": stalls,
            "mshr_occupancy": occupancy,
            "queued_requests": self.queued_requests,
            "dram_pending": self.dram.pending_requests,
        }
