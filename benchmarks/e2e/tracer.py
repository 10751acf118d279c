"""Per-layer self time measured from outside the program.

:class:`LayerTracer` replaces chosen functions (class methods, module
functions) with thin wrappers.  While a *root* span is open, a call into a
wrapped function pushes that function's layer on a stack; the time between
two consecutive clock reads is charged to whichever layer is on top, so a
layer's *self time* is its own time minus the time of the layers it calls.
Calls that stay inside the current layer pass straight through, and
outside a root span every wrapper is a plain call.

Wrapping costs time that would otherwise be charged to the layers.
:meth:`LayerTracer.calibrate` measures it with an empty callee: the part a
wrapped call adds to its callee's self time, and the part it adds to its
caller's.  :meth:`LayerTracer.report` subtracts both, per call, before
computing shares of the root time.

Only low-frequency spans (one per cell, batch, job or cache I/O call) are
kept as records; high-frequency layers only accumulate totals.
"""

from __future__ import annotations

import functools
import statistics
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator

from repro.telemetry.trace import merge_chrome_traces

#: A layer name, or a function of a call's first argument giving one.
Layer = str | Callable[[Any], str]


class LayerTracer:
    """A layer stack with online self-time accounting."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.clock = clock
        self.stack: list[str] = []
        self.self_ns: dict[str, int] = {}
        #: wrapped calls into each layer from another layer
        self.calls: dict[str, int] = {}
        #: wrapped calls each layer made into another layer
        self.outgoing: dict[str, int] = {}
        #: root spans opened per layer
        self.root_calls: dict[str, int] = {}
        #: exact call counts of single entry points (``wrap(tally=...)``)
        self.tallies: dict[str, int] = {}
        self.root_ns = 0
        #: low-frequency spans: name, start ``t`` (seconds), ``dur_s``, args
        self.spans: list[dict[str, Any]] = []
        self._mark = 0
        self._patches: list[tuple[Any, str, Any]] = []

    def register(self, *layers: str) -> None:
        """Declare layers up front, so unvisited ones report zero."""
        for layer in layers:
            for table in (self.self_ns, self.calls, self.outgoing):
                table.setdefault(layer, 0)

    # ------------------------------------------------------------------ #
    def wrap(self, fn: Callable, layer: Layer, *, tally: str | None = None,
             record: bool = False) -> Callable:
        """``fn`` with layer accounting.

        ``layer`` may be a function of the call's first argument (one
        class whose instances belong to different layers); such layers
        must be :meth:`register`\\ ed.  ``tally`` names an exact call
        counter for this entry point; ``record`` keeps one span per call,
        for low-frequency entry points only.
        """
        tracer, stack, clock = self, self.stack, self.clock
        self_ns, calls, outgoing = self.self_ns, self.calls, self.outgoing
        if isinstance(layer, str):
            self.register(layer)
        if tally is not None:
            self.tallies.setdefault(tally, 0)

        if isinstance(layer, str) and tally is None and not record:
            # The hot path, used by every simulator entry point: the
            # accounting is inlined to keep the wrapper cost down.
            def wrapper(*args, **kwargs):
                if not stack or stack[-1] is layer:
                    return fn(*args, **kwargs)
                now = clock()
                parent = stack[-1]
                self_ns[parent] += now - tracer._mark
                outgoing[parent] += 1
                calls[layer] += 1
                stack.append(layer)
                tracer._mark = now
                try:
                    return fn(*args, **kwargs)
                finally:
                    now = clock()
                    self_ns[layer] += now - tracer._mark
                    stack.pop()
                    tracer._mark = now
        else:
            def wrapper(*args, **kwargs):
                if tally is not None:
                    tracer.tallies[tally] += 1
                current = layer if isinstance(layer, str) else layer(args[0])
                if not stack or stack[-1] is current:
                    return fn(*args, **kwargs)
                start = tracer._enter(current)
                try:
                    return fn(*args, **kwargs)
                finally:
                    end = tracer._exit()
                    if record:
                        tracer.spans.append(tracer._span(current, start, end))
        return functools.update_wrapper(wrapper, fn)

    def _enter(self, layer: str) -> int:
        now = self.clock()
        parent = self.stack[-1]
        self.self_ns[parent] += now - self._mark
        self.outgoing[parent] += 1
        self.calls[layer] += 1
        self.stack.append(layer)
        self._mark = now
        return now

    def _exit(self) -> int:
        now = self.clock()
        self.self_ns[self.stack.pop()] += now - self._mark
        self._mark = now
        return now

    def wrap_root(self, fn: Callable, layer: str) -> Callable:
        """``fn`` opens a root span when no span is open (else nests)."""
        tracer = self
        nested = self.wrap(fn, layer)

        def wrapper(*args, **kwargs):
            if tracer.stack:
                return nested(*args, **kwargs)
            with tracer.root(layer):
                return fn(*args, **kwargs)
        return functools.update_wrapper(wrapper, fn)

    @contextmanager
    def root(self, layer: str) -> Iterator[None]:
        """Open a root span: wrapped calls inside it are accounted."""
        if self.stack:
            raise RuntimeError(f"root span {layer!r} opened inside "
                               f"{self.stack[-1]!r}")
        self.register(layer)
        start = self.clock()
        self.root_calls[layer] = self.root_calls.get(layer, 0) + 1
        self.stack.append(layer)
        self._mark = start
        try:
            yield
        finally:
            self.root_ns += self._exit() - start

    @contextmanager
    def span(self, name: str, **args: Any) -> Iterator[None]:
        """Record one low-frequency span (no effect on layer accounting)."""
        start = self.clock()
        try:
            yield
        finally:
            record = self._span(name, start, self.clock())
            record["args"].update(args)
            self.spans.append(record)

    def _span(self, name: str, start: int, end: int) -> dict[str, Any]:
        return {"name": name, "t": start / 1e9,
                "dur_s": (end - start) / 1e9, "args": {}}

    # ------------------------------------------------------------------ #
    def patch(self, owner: Any, name: str, layer: Layer, **options) -> None:
        """Wrap entry ``name`` of ``owner`` (a class, module or dict)."""
        raw = _namespace(owner)[name]
        if isinstance(raw, staticmethod):
            wrapped = staticmethod(self.wrap(raw.__func__, layer, **options))
        else:
            wrapped = self.wrap(raw, layer, **options)
        self._replace(owner, name, raw, wrapped)

    def patch_root(self, owner: Any, name: str, layer: str) -> None:
        raw = _namespace(owner)[name]
        self._replace(owner, name, raw, self.wrap_root(raw, layer))

    def _replace(self, owner: Any, name: str, raw: Any, new: Any) -> None:
        self._patches.append((owner, name, raw))
        _assign(owner, name, new)

    def unpatch(self) -> None:
        """Restore every patched entry, newest first."""
        while self._patches:
            owner, name, raw = self._patches.pop()
            _assign(owner, name, raw)

    @contextmanager
    def installed(self, install: Callable[["LayerTracer"], None]
                  ) -> Iterator["LayerTracer"]:
        """Apply ``install(self)`` for the duration of the block."""
        try:
            install(self)
            yield self
        finally:
            self.unpatch()

    # ------------------------------------------------------------------ #
    @staticmethod
    def calibrate(rounds: int = 5, calls: int = 20000) -> tuple[float, float]:
        """Wrapper cost per call: (ns added to the callee's self time, ns
        added to the caller's), each the median over ``rounds``.

        The probe is a method taking two arguments, the typical shape of
        the simulator's entry points."""
        class Probe:
            def method(self, first, second):
                return None

        obj = Probe()
        callee, caller = [], []
        for _ in range(rounds):
            start = time.perf_counter_ns()
            for _ in range(calls):
                obj.method(1, 2)
            plain = time.perf_counter_ns() - start
            probe = LayerTracer()
            with probe.installed(lambda t: t.patch(Probe, "method", "callee")):
                with probe.root("caller"):
                    start = time.perf_counter_ns()
                    for _ in range(calls):
                        obj.method(1, 2)
                    traced = time.perf_counter_ns() - start
            total = max(traced - plain, 0) / calls
            inside = min(probe.self_ns["callee"] / calls, total)
            callee.append(inside)
            caller.append(total - inside)
        return statistics.median(callee), statistics.median(caller)

    def report(self, callee_ns: float = 0.0,
               caller_ns: float = 0.0) -> dict[str, dict[str, float]]:
        """Per layer: ``self_share`` of the root time and ``calls`` (root
        openings included), with the calibrated wrapper cost removed."""
        nested = sum(self.calls.values())
        total = self.root_ns - nested * (callee_ns + caller_ns)
        out = {}
        for layer, spent in self.self_ns.items():
            corrected = (spent - self.calls[layer] * callee_ns
                         - self.outgoing[layer] * caller_ns)
            out[layer] = {
                "self_share": max(corrected, 0.0) / total if total > 0 else 0.0,
                "calls": self.calls[layer] + self.root_calls.get(layer, 0)}
        return out


def _namespace(owner: Any) -> dict:
    return owner if isinstance(owner, dict) else owner.__dict__


def _assign(owner: Any, name: str, value: Any) -> None:
    if isinstance(owner, dict):
        owner[name] = value
    else:
        setattr(owner, name, value)


def chrome_trace(spans: list[dict[str, Any]], counters: dict[str, float],
                 label: str) -> dict[str, Any]:
    """Spans and per-layer counters as one Chrome trace document.

    Spans go through :func:`repro.telemetry.trace.merge_chrome_traces` as
    its wall-clock lane and then become duration slices (``args["lane"]``
    picks the row); counters are appended to the same lane at its end.
    Time starts at the earliest span.
    """
    origin = min((span["t"] for span in spans), default=0.0)
    events = [{"kind": span["name"], "t": span["t"] - origin,
               "payload": dict(span["args"], dur_s=span["dur_s"])}
              for span in spans]
    doc = merge_chrome_traces([], engine_events=events)
    end_us = 0.0
    for record in doc["traceEvents"]:
        if record["ph"] == "M":
            record["args"]["name"] = label
            continue
        record["ph"] = "X"
        record["dur"] = record["args"]["dur_s"] * 1e6
        record["tid"] = record["args"].get("lane", 0)
        record.pop("s", None)
        end_us = max(end_us, record["ts"] + record["dur"])
    for name, value in sorted(counters.items()):
        doc["traceEvents"].append({"name": name, "ph": "C", "ts": end_us,
                                   "pid": 0, "args": {"value": value}})
    doc["otherData"]["time_unit"] = "wall-clock"
    return doc
