"""Deeper FR-FCFS scheduler tests: window bounds, fairness floor, load,
and a naive cycle-by-cycle reference."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem.address import dram_coordinates
from repro.mem.dram import DRAMModel, SCAN_WINDOW, _Channel
from repro.sim.config import GPUConfig
from repro.sim.events import EventQueue


def make():
    config = GPUConfig.small()
    events = EventQueue()
    return config, events, DRAMModel(config, events)


def drain(events):
    while events:
        events.run_due(events.next_time())


def stride_for(config):
    """Line-address stride that changes the row on one (channel, bank)."""
    return (config.dram_row_lines * config.dram_channels
            * config.dram_banks_per_channel)


class TestWindowSemantics:
    def test_row_hit_beyond_window_not_promoted(self):
        config, events, dram = make()
        order = []
        # Open row 0 on bank 0.
        dram.read(0, 0, lambda now, arg: order.append(arg), "warm")
        drain(events)
        stride = stride_for(config)
        start = 100_000
        # Fill the scan window with row misses to the same bank, then park
        # a row hit *beyond* the window: it must not be promoted.
        for i in range(SCAN_WINDOW):
            dram.read((i + 1) * stride, start,
                      lambda now, arg: order.append(arg), f"miss{i}")
        dram.read(1, start, lambda now, arg: order.append(arg), "hit")
        drain(events)
        assert order[0] == "warm"
        assert order[1] != "hit"       # not visible to the scheduler yet

    def test_oldest_served_among_misses(self):
        config, events, dram = make()
        order = []
        stride = stride_for(config)
        for i in range(4):
            dram.read(i * stride, 0, lambda now, arg: order.append(arg), i)
        drain(events)
        assert order == [0, 1, 2, 3]

    def test_every_request_eventually_served(self):
        config, events, dram = make()
        served = []
        stride = stride_for(config)
        # Interleave row hits and misses heavily.
        for i in range(50):
            line = (i % 3) * stride + (i % config.dram_row_lines)
            dram.read(line, 0, lambda now, arg: served.append(arg), i)
        drain(events)
        assert sorted(served) == list(range(50))

    def test_no_events_left_behind(self):
        config, events, dram = make()
        for i in range(10):
            dram.read(i, 0, lambda now, arg: None)
        drain(events)
        assert dram.pending_requests == 0
        assert len(events) == 0


class TestThroughput:
    def test_row_hit_stream_achieves_burst_rate(self):
        config, events, dram = make()
        done = []
        count = config.dram_row_lines  # one full row on one channel
        for line in range(count):
            dram.read(line, 0, lambda now, arg: done.append(now))
        drain(events)
        span = max(done) - min(done)
        # After the first activate, hits stream at one per burst.
        assert span <= (count - 1) * config.dram_t_burst + config.dram_t_cas

    def test_channels_scale_bandwidth(self):
        config, events, dram = make()
        done = []
        # Two streams on different channels, same volume.
        for line in range(config.dram_row_lines):
            dram.read(line, 0, lambda now, arg: done.append(now))
            dram.read(line + config.dram_row_lines, 0,
                      lambda now, arg: done.append(now))
        drain(events)
        # Both channels finish around the same time: doubling the traffic
        # over two channels costs far less than 2x the single-channel span.
        single_span = (config.dram_row_lines - 1) * config.dram_t_burst \
            + config.dram_t_row_miss + config.dram_t_burst
        assert max(done) <= single_span * 1.5


def naive_frfcfs(config, stream):
    """Cycle-by-cycle FR-FCFS reference.

    ``stream`` is ``[(arrival, line, read_id)]`` in arrival order, with
    ``read_id`` None for a write.  Each cycle, arrivals join their channel's
    queue first; then every channel whose bus is free serves, among its
    oldest SCAN_WINDOW requests whose bank is ready, the first row hit, else
    the oldest.  Returns the per-cycle log of ``(cycle, row_hits,
    row_misses, open rows of the stream's lines)`` after each cycle that
    served something, each read's completion cycle, and the longest queue.
    """
    channels = config.dram_channels
    banks = config.dram_banks_per_channel
    t_burst = config.dram_t_burst
    lines = sorted({line for _, line, _ in stream})
    coords = {line: dram_coordinates(line, channels, banks,
                                     config.dram_row_lines)
              for line in lines}
    queues = [[] for _ in range(channels)]
    bus_free = [0] * channels
    bank_ready = [[0] * banks for _ in range(channels)]
    open_row = [[-1] * banks for _ in range(channels)]
    hits = misses = longest = 0
    log, completions = [], {}
    arrivals = list(reversed(stream))
    cycle = 0
    while arrivals or any(queues):
        while arrivals and arrivals[-1][0] == cycle:
            _, line, read_id = arrivals.pop()
            where = coords[line]
            queues[where.channel].append((where.bank, where.row, read_id))
        longest = max([longest] + [len(queue) for queue in queues])
        served = False
        for channel, queue in enumerate(queues):
            if not queue or bus_free[channel] > cycle:
                continue
            ready = [i for i, (bank, _, _) in enumerate(queue[:SCAN_WINDOW])
                     if bank_ready[channel][bank] <= cycle]
            if not ready:
                continue
            row_hits = [i for i in ready
                        if open_row[channel][queue[i][0]] == queue[i][1]]
            bank, row, read_id = queue.pop(row_hits[0] if row_hits
                                           else ready[0])
            if open_row[channel][bank] == row:
                latency = config.dram_t_cas
                hits += 1
                bank_ready[channel][bank] = cycle + t_burst
            else:
                latency = config.dram_t_row_miss
                misses += 1
                open_row[channel][bank] = row
                bank_ready[channel][bank] = cycle + config.dram_t_row_miss
            bus_free[channel] = cycle + t_burst
            if read_id is not None:
                completions[read_id] = cycle + latency + t_burst
            served = True
        if served:
            rows = tuple(open_row[coords[line].channel][coords[line].bank]
                         for line in lines)
            log.append((cycle, hits, misses,
                        tuple(None if row < 0 else row for row in rows)))
        cycle += 1
    return log, completions, longest


def run_model(config, stream):
    """Feed ``stream`` to a DRAMModel, firing every event due before each
    arrival first; returns the same log and completions as the reference."""
    events = EventQueue()
    dram = DRAMModel(config, events)
    lines = sorted({line for _, line, _ in stream})
    log, completions = [], {}

    def on_read(now, read_id):
        completions[read_id] = now

    def step():
        cycle = events.next_time()
        events.run_due(cycle)
        state = (dram.stats.row_hits, dram.stats.row_misses,
                 tuple(dram.open_row(line) for line in lines))
        if not log or log[-1][1:] != state:
            log.append((cycle,) + state)

    for arrival, line, read_id in stream:
        while events and events.next_time() < arrival:
            step()
        if read_id is None:
            dram.write(line, arrival)
        else:
            dram.read(line, arrival, on_read, read_id)
    while events:
        step()
    return log, completions


def random_stream(seed, count=600):
    """Seeded reads and writes in bursts, over a few rows per bank; writes
    come from a small pool of lines, so many share a (bank, row)."""
    rng = random.Random(seed)
    config = GPUConfig.small()
    span = stride_for(config) * 3
    write_pool = [rng.randrange(span) for _ in range(12)]
    stream, arrival = [], 0
    for read_id in range(count):
        arrival += rng.choice((0, 0, 0, 1, 2, 5, 9))
        if rng.random() < 0.4:
            stream.append((arrival, rng.choice(write_pool), None))
        else:
            stream.append((arrival, rng.randrange(span), read_id))
    return config, stream


class TestAgainstNaiveReference:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_same_service_order_and_completion_cycles(self, seed):
        config, stream = random_stream(seed)
        expected_log, expected_done, longest = naive_frfcfs(config, stream)
        # The stream must exercise what it claims to: queues deeper than
        # the scan window, and writes repeating a (bank, row).
        assert longest > SCAN_WINDOW
        targets = [dram_coordinates(line, config.dram_channels,
                                    config.dram_banks_per_channel,
                                    config.dram_row_lines)
                   for _, line, read_id in stream if read_id is None]
        assert len(set(targets)) < len(targets)
        log, done = run_model(config, stream)
        assert done == expected_done
        assert log == expected_log


def double_scan(channel, now):
    """The pick of a two-scan service: FR-FCFS over the window and, when
    no bank in it is ready, a second scan for the earliest ready cycle.
    Returns ``(index, None)`` or ``(None, wake)``."""
    window = channel.pending[:SCAN_WINDOW]
    ready = [i for i, (bank, _, _, _) in enumerate(window)
             if channel.bank_ready[bank] <= now]
    hits = [i for i in ready if channel.open_row[window[i][0]] == window[i][1]]
    if ready:
        return (hits or ready)[0], None
    return None, min(channel.bank_ready[bank] for bank, _, _, _ in window)


class TestOneScanPick:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_same_pick_and_wake_as_a_double_scan(self, data):
        banks = data.draw(st.integers(1, 8))
        channel = _Channel(banks)
        channel.bank_ready = data.draw(st.lists(
            st.integers(1, 60), min_size=banks, max_size=banks))
        channel.open_row = data.draw(st.lists(
            st.integers(-1, 3), min_size=banks, max_size=banks))
        channel.pending = data.draw(st.lists(
            st.tuples(st.integers(0, banks - 1), st.integers(0, 3),
                      st.none(), st.none()),
            min_size=1, max_size=2 * SCAN_WINDOW))
        now = data.draw(st.integers(0, 60))
        if data.draw(st.booleans()):
            # Every bank in the window busy: the no-ready path.
            now = min(channel.bank_ready[bank] for bank, _, _, _
                      in channel.pending[:SCAN_WINDOW]) - 1
        index, wake = DRAMModel._pick(channel, now)
        expected_index, expected_wake = double_scan(channel, now)
        assert index == expected_index
        if index is None:
            assert wake == expected_wake
