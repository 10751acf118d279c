"""Host-speed normalisation.

The benchmark's timings are *normalised seconds*: wall seconds scaled by
``NOMINAL_S / t_ref``, where ``t_ref`` is how long a fixed reference loop
took next to or during the measured work, and ``NOMINAL_S`` is about its
duration on an unloaded host.  A regression in the program leaves the
loop unchanged, so it shows at full size; a host that runs slower slows
both, and the ratio cancels.

A shared 2-vCPU VM drifts in two ways, and each needs its own probe:

* one vCPU runs slower for a while (a busy neighbour): single-threaded
  work is timed by :func:`timed`, between two runs of the loop in the
  same thread;
* the VM gets fewer real CPUs for a while: work that keeps two processes
  busy is normalised by :class:`ConcurrentProbe`, which runs the loop in
  its own process throughout the work, sharing the CPUs with it.

Set-up times are starts of fresh processes, and drift with the cost of
starting one and importing modules rather than with the loop:
:func:`start_timed` takes such a start as its reference instead.

This module imports nothing from the program, so the reference cannot
change with it.
"""

from __future__ import annotations

import heapq
import json
import math
import select
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, TypeVar

#: About :func:`reference_loop`'s duration on an unloaded 2-vCPU Xeon VM.
NOMINAL_S = 0.04

#: Standard-library modules of about the size of the program's imports:
#: a fresh interpreter importing them is the reference for set-up times.
REFERENCE_IMPORTS = (
    "import argparse, asyncio, concurrent.futures, dataclasses, decimal, "
    "email.message, hashlib, http.client, json, logging, random, "
    "statistics, tempfile, typing, unittest, xml.dom.minidom")

#: About the duration of that start on the same host.
NOMINAL_START_S = 0.15

#: Pause between two samples of a :class:`ConcurrentProbe`.
PROBE_INTERVAL_S = 0.4

T = TypeVar("T")


class _Entry:
    __slots__ = ("key", "hits")

    def __init__(self, key: int) -> None:
        self.key = key
        self.hits = 0


def reference_loop(rounds: int = 25000) -> int:
    """Fixed pure-Python work in the simulator's style: slotted objects,
    an insertion-ordered dict used as an LRU, a heap.  Its working set
    (16K objects, a 32K-entry dict) is as large as a simulation's, so it
    feels cache and memory contention from neighbours as the simulator
    does."""
    heap: list = []
    lru: dict[int, _Entry] = {}
    entries = [_Entry(i) for i in range(16384)]
    for step in range(rounds):
        entry = entries[(step * 7919) & 16383]
        entry.hits += 1
        key = (step * 2654435761) & 131071
        if key in lru:
            del lru[key]
        elif len(lru) >= 32768:
            del lru[next(iter(lru))]
        lru[key] = entry
        heapq.heappush(heap, (step + (key & 255), step, entry))
        if len(heap) > 2048:
            heapq.heappop(heap)
    return len(lru)


def _timed_loop() -> float:
    start = time.perf_counter()
    reference_loop()
    return time.perf_counter() - start


def timed(fn: Callable[[], T]) -> tuple[T, float]:
    """Run ``fn`` between two same-thread runs of the reference loop;
    returns its result and its normalised seconds."""
    before = _timed_loop()
    start = time.perf_counter()
    result = fn()
    wall = time.perf_counter() - start
    return result, wall * 2 * NOMINAL_S / (before + _timed_loop())


def _timed_start() -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", REFERENCE_IMPORTS], check=True,
                   timeout=60)
    return time.perf_counter() - start


def start_timed(fn: Callable[[], T]) -> tuple[T, float]:
    """Like :func:`timed`, for starting processes: the reference is a
    fresh interpreter importing :data:`REFERENCE_IMPORTS`, before and
    after ``fn``.  Start-up is process creation and imports, and follows
    the host's cost of those more than the speed of the reference loop
    (see README.md)."""
    before = _timed_start()
    start = time.perf_counter()
    result = fn()
    wall = time.perf_counter() - start
    return result, wall * 2 * NOMINAL_START_S / (before + _timed_start())


def _probe() -> None:
    """The probe process: sample until a line arrives on stdin, then
    print the samples as JSON.  ``perf_counter`` is the system-wide
    monotonic clock, so its times compare with the parent's."""
    print("ready", flush=True)
    samples = []
    while True:
        start = time.perf_counter()
        reference_loop()
        end = time.perf_counter()
        samples.append(((start + end) / 2, end - start))
        if select.select([sys.stdin], [], [], PROBE_INTERVAL_S)[0]:
            break
    print(json.dumps(samples), flush=True)


class ConcurrentProbe:
    """A process running the reference loop every ``PROBE_INTERVAL_S``
    while the block runs; afterwards :meth:`seconds` normalises any
    interval of the block.  The probe takes a small, steady share of the
    CPUs, the same on every run.

    The probe is a plain subprocess talking over its stdin and stdout:
    ``multiprocessing``'s spawn context would also start a resource
    tracker process that outlives this one."""

    def __enter__(self) -> "ConcurrentProbe":
        self._process = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--probe"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        if self._process.stdout.readline().strip() != "ready":
            self._stop()
            raise RuntimeError("host-speed probe did not start")
        return self   # the first sample starts now

    def __exit__(self, *exc) -> None:
        try:
            # An explicit line, not end of file: processes forked during
            # the block hold a copy of the stdin pipe.
            self._process.stdin.write("stop\n")
            self._process.stdin.flush()
            self._samples: list[tuple[float, float]] = [
                tuple(sample) for sample in
                json.loads(self._process.stdout.read())]
        finally:
            self._stop()

    def _stop(self) -> None:
        for stream in (self._process.stdin, self._process.stdout):
            try:
                stream.close()
            except OSError:   # the probe died first: a broken pipe
                pass
        try:
            self._process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._process.kill()
            self._process.wait()

    def seconds(self, start: float, end: float) -> float:
        """Normalised length of ``[start, end]`` (``perf_counter`` times):
        each instant counts ``NOMINAL_S / d`` seconds, where ``d`` is the
        duration of the probe sample nearest to it."""
        mids = [mid for mid, _ in self._samples]
        total = 0.0
        for i, (mid, duration) in enumerate(self._samples):
            low = (mids[i - 1] + mid) / 2 if i else -math.inf
            high = (mid + mids[i + 1]) / 2 if i + 1 < len(mids) else math.inf
            overlap = min(end, high) - max(start, low)
            if overlap > 0:
                total += overlap * NOMINAL_S / duration
        return total


if __name__ == "__main__" and sys.argv[1:] == ["--probe"]:
    _probe()
