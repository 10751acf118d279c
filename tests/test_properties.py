"""Property-based tests (hypothesis) for core data structures and invariants."""

import heapq

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.lcs import (decide_n_star_coverage, decide_n_star_tail,
                            decide_n_star_threshold)
from repro.harness.reporting import geomean
from repro.mem.address import dram_coordinates
from repro.mem.cache import Access, Cache
from repro.mem.coalescer import coalesce
from repro.sim.events import EventQueue

lines_strategy = st.lists(st.integers(min_value=0, max_value=500),
                          min_size=1, max_size=60)
counts_strategy = st.lists(st.integers(min_value=0, max_value=10_000),
                           min_size=1, max_size=16)
ratio_strategy = st.floats(min_value=0.01, max_value=1.0,
                           allow_nan=False, allow_infinity=False)


# --------------------------------------------------------------------------- #
# Cache invariants
# --------------------------------------------------------------------------- #

@given(lines=lines_strategy)
@settings(max_examples=60)
def test_cache_capacity_never_exceeded(lines):
    cache = Cache("p", num_sets=4, assoc=2, mshr_entries=64,
                  mshr_max_merge=64)
    for line in lines:
        outcome = cache.lookup_load(line, "w")
        if outcome in (Access.MISS, Access.MERGED):
            cache.fill(line)
    assert sum(len(s) for s in cache._sets) <= 4 * 2


@given(lines=lines_strategy)
@settings(max_examples=60)
def test_cache_stats_balance(lines):
    cache = Cache("p", num_sets=4, assoc=2, mshr_entries=4, mshr_max_merge=2)
    for line in lines:
        outcome = cache.lookup_load(line, "w")
        if outcome is Access.MISS:
            cache.fill(line)
    stats = cache.stats
    assert stats.accesses == stats.hits + stats.misses + stats.merges
    assert 0.0 <= stats.miss_rate <= 1.0


@given(lines=lines_strategy)
@settings(max_examples=60)
def test_mshr_waiters_conserved(lines):
    """Every registered waiter comes back exactly once via fill()."""
    cache = Cache("p", num_sets=8, assoc=4, mshr_entries=128,
                  mshr_max_merge=128)
    registered = 0
    returned = 0
    for i, line in enumerate(lines):
        outcome = cache.lookup_load(line, i)
        if outcome in (Access.MISS, Access.MERGED):
            registered += 1
    for line in set(lines):
        returned += len(cache.fill(line))
    assert registered == returned


# --------------------------------------------------------------------------- #
# Coalescer properties
# --------------------------------------------------------------------------- #

@given(addresses=st.lists(st.integers(min_value=0, max_value=1 << 20),
                          min_size=1, max_size=32))
def test_coalesce_distinct_and_covering(addresses):
    lines = coalesce(addresses, line_size=128)
    assert len(set(lines)) == len(lines)
    assert {a // 128 for a in addresses} == set(lines)
    assert len(lines) <= len(addresses)


# --------------------------------------------------------------------------- #
# DRAM address-mapping properties
# --------------------------------------------------------------------------- #

@given(line=st.integers(min_value=0, max_value=1 << 30),
       channels=st.integers(min_value=1, max_value=8),
       banks=st.integers(min_value=1, max_value=16),
       row_lines=st.integers(min_value=1, max_value=64))
def test_dram_mapping_in_range_and_bijective_within_chunk(line, channels,
                                                          banks, row_lines):
    coords = dram_coordinates(line, channels, banks, row_lines)
    assert 0 <= coords.channel < channels
    assert 0 <= coords.bank < banks
    assert coords.row >= 0
    # Reconstruct the chunk index: the mapping must be invertible.
    chunk = ((coords.row * banks + coords.bank) * channels + coords.channel)
    assert chunk == line // row_lines


# --------------------------------------------------------------------------- #
# Event queue properties
# --------------------------------------------------------------------------- #

@given(times=st.lists(st.integers(min_value=0, max_value=1000),
                      min_size=1, max_size=50))
def test_events_fire_in_nondecreasing_time_order(times):
    queue = EventQueue()
    fired = []
    for t in times:
        queue.schedule(t, lambda now, arg: fired.append(arg), t)
    while queue:
        queue.run_due(queue.next_time())
    assert fired == sorted(fired)
    assert len(fired) == len(times)


class _HeapQueue:
    """The ``(time, seq, callback, arg)`` heap the calendar replaced: the
    reference firing order."""

    def __init__(self):
        self.heap = []
        self.seq = 0

    def __len__(self):
        return len(self.heap)

    def schedule(self, time, callback, arg=None):
        heapq.heappush(self.heap, (time, self.seq, callback, arg))
        self.seq += 1

    def next_time(self):
        return self.heap[0][0] if self.heap else None

    def run_due(self, now):
        fired = 0
        while self.heap and self.heap[0][0] <= now:
            _, _, callback, arg = heapq.heappop(self.heap)
            callback(now, arg)
            fired += 1
        return fired


def _drive(queue, spawn, ops):
    """Run one schedule program against ``queue``; return what it saw.

    Event ``k < len(spawn)`` schedules one child per delay in
    ``spawn[k]`` when it fires, at ``now + delay`` (delay 0 lands in the
    cycle being fired).  ``("at", d)`` schedules from outside at the
    current clock plus ``d``; ``("run", d)`` advances the clock to ``d``
    past the later of itself and the queue's head, then fires what is
    due."""
    seen = []
    next_id = [0]

    def fire(now, event):
        seen.append(("fire", event, now))
        if event < len(spawn):
            for delay in spawn[event]:
                queue.schedule(now + delay, fire, next_id[0])
                next_id[0] += 1

    clock = 0
    for op, delta in ops:
        if op == "at":
            queue.schedule(clock + delta, fire, next_id[0])
            next_id[0] += 1
        elif queue:
            clock = max(clock, queue.next_time()) + delta
            seen.append(("run", clock, queue.run_due(clock)))
        seen.append(("state", len(queue), queue.next_time()))
    while queue:
        seen.append(("drain", queue.run_due(queue.next_time())))
    return seen


@given(spawn=st.lists(st.lists(st.integers(min_value=0, max_value=4),
                               max_size=3), max_size=30),
       ops=st.lists(st.tuples(st.sampled_from(["at", "run"]),
                              st.integers(min_value=0, max_value=6)),
                    min_size=1, max_size=40))
@settings(max_examples=200)
def test_event_calendar_fires_like_a_time_seq_heap(spawn, ops):
    assert _drive(EventQueue(), spawn, ops) == _drive(_HeapQueue(), spawn,
                                                      ops)


# --------------------------------------------------------------------------- #
# LCS decision-rule properties
# --------------------------------------------------------------------------- #

@given(counts=counts_strategy, ratio=ratio_strategy,
       occupancy=st.integers(min_value=1, max_value=16))
def test_tail_rule_bounds(counts, ratio, occupancy):
    n = decide_n_star_tail(counts, ratio, occupancy)
    assert 1 <= n <= max(occupancy, 1)


@given(counts=counts_strategy, coverage=ratio_strategy,
       occupancy=st.integers(min_value=1, max_value=16))
def test_coverage_rule_bounds_and_monotonicity(counts, coverage, occupancy):
    n = decide_n_star_coverage(counts, coverage, occupancy)
    assert 1 <= n <= occupancy
    # Higher coverage can never pick fewer CTAs.
    higher = decide_n_star_coverage(counts, min(1.0, coverage + 0.2),
                                    occupancy)
    assert higher >= n


@given(counts=counts_strategy, threshold=ratio_strategy,
       occupancy=st.integers(min_value=1, max_value=16))
def test_threshold_rule_bounds_and_antitonicity(counts, threshold, occupancy):
    n = decide_n_star_threshold(counts, threshold, occupancy)
    assert 1 <= n <= occupancy
    # A stricter threshold can never pick more CTAs.
    stricter = decide_n_star_threshold(counts, min(1.0, threshold + 0.2),
                                       occupancy)
    assert stricter <= n


@given(counts=st.lists(st.integers(min_value=1, max_value=10_000),
                       min_size=2, max_size=16))
def test_tail_rule_permutation_invariant(counts):
    base = decide_n_star_tail(counts, 0.5, 16)
    shuffled = list(reversed(counts))
    assert decide_n_star_tail(shuffled, 0.5, 16) == base


# --------------------------------------------------------------------------- #
# Reporting
# --------------------------------------------------------------------------- #

@given(values=st.lists(st.floats(min_value=0.01, max_value=100.0,
                                 allow_nan=False), min_size=1, max_size=20))
def test_geomean_between_min_and_max(values):
    g = geomean(values)
    assert min(values) * 0.999 <= g <= max(values) * 1.001


@given(values=st.lists(st.floats(min_value=0.01, max_value=100.0,
                                 allow_nan=False), min_size=1, max_size=20),
       factor=st.floats(min_value=0.1, max_value=10.0, allow_nan=False))
def test_geomean_scales_linearly(values, factor):
    import math
    assert math.isclose(geomean([v * factor for v in values]),
                        geomean(values) * factor, rel_tol=1e-9)
