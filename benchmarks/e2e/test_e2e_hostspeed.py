"""The host-speed probes: they measure, and they leave no process behind."""

from __future__ import annotations

import time
from multiprocessing import resource_tracker

from hostspeed import ConcurrentProbe, start_timed


def test_concurrent_probe_samples_and_stops_its_process():
    with ConcurrentProbe() as probe:
        began = time.perf_counter()
        time.sleep(0.5)
        ended = time.perf_counter()
    assert probe._process.returncode == 0
    assert len(probe._samples) >= 2
    assert probe.seconds(began, ended) > 0
    # A multiprocessing context would have started a resource tracker,
    # which outlives the benchmark process.
    assert resource_tracker._resource_tracker._pid is None


def test_start_timed_returns_the_result_and_positive_seconds():
    result, seconds = start_timed(lambda: 42)
    assert result == 42 and seconds >= 0
