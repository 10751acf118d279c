"""DRAM timing model: channels, banks, row buffers, FR-FCFS scheduling.

Models the three effects CTA-scheduling studies care about:

* **latency** — a request pays CAS latency on a row-buffer hit and
  precharge+activate+CAS on a row-buffer miss;
* **bandwidth** — each 128-byte transfer occupies its channel's data bus for
  ``t_burst`` cycles, so concurrent requests queue behind one another;
* **row locality under contention** — the per-channel scheduler is
  FR-FCFS-like: among the oldest ``SCAN_WINDOW`` pending requests it first
  serves one that hits an open row on a ready bank, falling back to the
  oldest ready request.  (Pure FCFS would make interleaved streams from
  many cores thrash every row buffer, which real memory controllers avoid.)

The model is event-driven: requests enqueue, the channel wakes itself
through the GPU event queue, and read completions are delivered through the
callback supplied by the caller.
"""

from __future__ import annotations

from itertools import islice
from typing import Any, Callable

from ..sim.config import GPUConfig
from ..sim.events import EventQueue
from ..sim.stats import DRAMStats
from .address import dram_location

#: How many of the oldest pending requests the scheduler considers for a
#: row hit (finite scheduler visibility, like real controllers).
SCAN_WINDOW = 32

#: Later than any bank-ready cycle (the start of ``_pick``'s running min).
_NEVER = float("inf")

ResponseCallback = Callable[[int, Any], None]


class _Channel:
    __slots__ = ("pending", "bus_free", "bank_ready", "open_row", "wake_at")

    def __init__(self, num_banks: int) -> None:
        #: Queued requests, oldest first, as ``(bank, row, callback, arg)``;
        #: a write has no callback.
        self.pending: list[tuple[int, int, ResponseCallback | None, Any]] = []
        self.bus_free = 0
        self.bank_ready = [0] * num_banks
        self.open_row = [-1] * num_banks
        self.wake_at: int | None = None   # already-scheduled service time


class DRAMModel:
    """All channels of the device, scheduled FR-FCFS per channel."""

    __slots__ = ("_events", "_channels", "_banks", "_row_lines", "_t_cas",
                 "_t_row_miss", "_t_burst", "_num_channels", "stats")

    def __init__(self, config: GPUConfig, events: EventQueue) -> None:
        self._events = events
        self._num_channels = config.dram_channels
        self._banks = config.dram_banks_per_channel
        self._row_lines = config.dram_row_lines
        self._t_cas = config.dram_t_cas
        self._t_row_miss = config.dram_t_row_miss
        self._t_burst = config.dram_t_burst
        self._channels = [_Channel(self._banks)
                          for _ in range(self._num_channels)]
        self.stats = DRAMStats()

    # ------------------------------------------------------------------ #
    def read(self, line: int, now: int, callback: ResponseCallback,
             arg: Any = None) -> None:
        """Enqueue a read; ``callback(completion_cycle, arg)`` fires later."""
        self.stats.reads += 1
        self._enqueue(line, now, callback, arg)

    def write(self, line: int, now: int) -> None:
        """Enqueue a write (fire-and-forget; still occupies bank and bus)."""
        self.stats.writes += 1
        self._enqueue(line, now, None, None)

    def _enqueue(self, line: int, now: int, callback: ResponseCallback | None,
                 arg: Any) -> None:
        channel_idx, bank, row = dram_location(
            line, self._num_channels, self._banks, self._row_lines)
        channel = self._channels[channel_idx]
        channel.pending.append((bank, row, callback, arg))
        self._wake(channel_idx, max(now, channel.bus_free))

    # ------------------------------------------------------------------ #
    def _wake(self, channel_idx: int, when: int) -> None:
        """Arrange for :meth:`_service` to run at ``when`` (deduplicated:
        at most one *live* service event per channel; superseded events are
        recognised by their stamped time and ignored)."""
        channel = self._channels[channel_idx]
        if channel.wake_at is not None and channel.wake_at <= when:
            return
        channel.wake_at = when
        self._events.schedule(when, self._service, (channel_idx, when))

    def _service(self, now: int, arg: tuple[int, int]) -> None:
        channel_idx, stamp = arg
        channel = self._channels[channel_idx]
        if channel.wake_at != stamp:
            return  # superseded by an earlier wake
        channel.wake_at = None
        pending = channel.pending
        if not pending:
            return
        if channel.bus_free > now:
            self._wake(channel_idx, channel.bus_free)
            return
        index, wake = self._pick(channel, now)
        if index is None:
            # Every candidate's bank is mid-activate; retry when one frees.
            self._wake(channel_idx, wake)
            return
        bank, row, callback, callback_arg = pending.pop(index)
        if channel.open_row[bank] == row:
            access_latency = self._t_cas
            self.stats.row_hits += 1
            channel.bank_ready[bank] = now + self._t_burst
        else:
            access_latency = self._t_row_miss
            self.stats.row_misses += 1
            channel.open_row[bank] = row
            # Precharge + activate occupies the bank, not the bus.
            channel.bank_ready[bank] = now + self._t_row_miss
        channel.bus_free = now + self._t_burst
        self.stats.bus_busy_cycles += self._t_burst
        if callback is not None:
            completion = now + access_latency + self._t_burst
            self._events.schedule(completion, callback, callback_arg)
        if pending:
            self._wake(channel_idx, channel.bus_free)

    @staticmethod
    def _pick(channel: _Channel, now: int) -> tuple[int | None, int]:
        """FR-FCFS over the oldest SCAN_WINDOW requests: ``(index, _)``
        with the queue index of the first ready row hit, else of the
        oldest ready request; ``(None, wake)`` when no bank in the window
        is ready, ``wake`` being the earliest cycle one frees.  The window
        is scanned once, in place; a service copies no part of the queue."""
        bank_ready = channel.bank_ready
        open_row = channel.open_row
        oldest_ready = None
        wake = _NEVER
        for index, (bank, row, _, _) in enumerate(
                islice(channel.pending, SCAN_WINDOW)):
            ready = bank_ready[bank]
            if ready > now:
                if ready < wake:
                    wake = ready
                continue
            if open_row[bank] == row:
                return index, now        # first ready row hit wins
            if oldest_ready is None:
                oldest_ready = index
        return oldest_ready, wake

    # ------------------------------------------------------------------ #
    @property
    def pending_requests(self) -> int:
        return sum(len(ch.pending) for ch in self._channels)

    def telemetry_snapshot(self) -> dict:
        """Cumulative counters + queue depth for telemetry probes.

        The DRAM model's reporting interface (pure read): per-window bus
        utilization is ``Δbus_busy_cycles / (window × channels)``.
        """
        stats = self.stats
        return {
            "reads": stats.reads,
            "writes": stats.writes,
            "row_hits": stats.row_hits,
            "row_misses": stats.row_misses,
            "bus_busy_cycles": stats.bus_busy_cycles,
            "pending_requests": self.pending_requests,
            "channels": self._num_channels,
        }

    def open_row(self, line: int) -> int | None:
        """Currently open row of the bank serving ``line`` (None if closed)."""
        channel, bank, _ = dram_location(line, self._num_channels,
                                         self._banks, self._row_lines)
        row = self._channels[channel].open_row[bank]
        return None if row < 0 else row
