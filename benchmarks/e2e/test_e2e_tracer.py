"""Self time of nested spans, wrapper-cost subtraction and patching."""

from __future__ import annotations

import pytest

from tracer import LayerTracer, chrome_trace


class FakeClock:
    """Each read returns the next scripted timestamp (ns)."""

    def __init__(self, *ticks: int) -> None:
        self.ticks = list(ticks)

    def __call__(self) -> int:
        return self.ticks.pop(0)


def nested_run(tracer: LayerTracer) -> None:
    """root A -> B -> C, with B also calling into B (same layer)."""
    def c():
        return None

    wrapped_c = tracer.wrap(c, "C")

    def b_inner():
        wrapped_c()

    wrapped_b_inner = tracer.wrap(b_inner, "B")

    def b():
        wrapped_b_inner()   # same layer: passes straight through

    wrapped_b = tracer.wrap(b, "B")
    with tracer.root("A"):
        wrapped_b()


def test_self_time_of_nested_spans():
    # A opens at 0, B enters at 10, C enters at 15, C exits at 25,
    # B exits at 30, A closes at 40.
    tracer = LayerTracer(FakeClock(0, 10, 15, 25, 30, 40))
    nested_run(tracer)
    assert tracer.self_ns == {"A": 20, "B": 10, "C": 10}
    assert tracer.root_ns == 40
    report = tracer.report()
    assert report["A"] == {"self_share": 0.5, "calls": 1}
    assert report["B"] == {"self_share": 0.25, "calls": 1}
    assert report["C"] == {"self_share": 0.25, "calls": 1}


def test_wrapper_cost_is_subtracted_from_callee_and_caller():
    tracer = LayerTracer(FakeClock(0, 10, 15, 25, 30, 40))
    nested_run(tracer)
    # Each wrapped call adds 1 ns to its callee and 2 ns to its caller:
    # A made 1 call, B made 1 and received 1, C received 1.
    report = tracer.report(callee_ns=1, caller_ns=2)
    total = 40 - 2 * 3
    assert report["A"]["self_share"] == pytest.approx((20 - 2) / total)
    assert report["B"]["self_share"] == pytest.approx((10 - 1 - 2) / total)
    assert report["C"]["self_share"] == pytest.approx((10 - 1) / total)
    assert sum(r["self_share"] for r in report.values()) == pytest.approx(1)


def test_negative_corrected_self_time_clamps_to_zero():
    tracer = LayerTracer(FakeClock(0, 10, 15, 25, 30, 40))
    nested_run(tracer)
    assert tracer.report(callee_ns=20, caller_ns=0)["C"]["self_share"] == 0


def test_wrappers_outside_a_root_are_plain_calls():
    tracer = LayerTracer(FakeClock())   # any clock read would fail
    assert tracer.wrap(lambda x: x + 1, "L")(1) == 2
    assert tracer.calls == {"L": 0}


def test_layer_chosen_per_instance_and_tallies():
    class Part:
        def __init__(self, name):
            self.name = name

        def work(self):
            return self.name

    tracer = LayerTracer()
    tracer.register("even", "odd")
    tracer.patch(Part, "work", lambda part: part.name, tally="work")
    with tracer.root("top"):
        assert [Part(n).work() for n in ("even", "odd", "odd")] == \
            ["even", "odd", "odd"]
    tracer.unpatch()
    assert tracer.calls["even"] == 1 and tracer.calls["odd"] == 2
    assert tracer.tallies["work"] == 3
    assert "work" in Part.__dict__ and Part("x").work() == "x"


def test_patch_and_unpatch_restore_methods_modules_and_dicts():
    class Thing:
        def method(self):
            return "method"

        @staticmethod
        def helper():
            return "helper"

    table = {"entry": lambda: "entry"}
    originals = (Thing.__dict__["method"], Thing.__dict__["helper"],
                 table["entry"])
    tracer = LayerTracer()
    with tracer.installed(lambda t: (t.patch(Thing, "method", "L"),
                                     t.patch(Thing, "helper", "L"),
                                     t.patch(table, "entry", "L"))):
        assert Thing.__dict__["method"] is not originals[0]
        with tracer.root("top"):
            assert (Thing().method(), Thing.helper(), table["entry"]()) == \
                ("method", "helper", "entry")
    assert (Thing.__dict__["method"], Thing.__dict__["helper"],
            table["entry"]) == originals
    assert tracer.calls["L"] == 3


def test_root_span_cannot_nest():
    tracer = LayerTracer()
    with tracer.root("outer"), pytest.raises(RuntimeError):
        with tracer.root("inner"):
            pass


def test_calibration_is_non_negative():
    callee, caller = LayerTracer.calibrate(rounds=1, calls=2000)
    assert callee >= 0 and caller >= 0


def test_chrome_trace_has_duration_slices_and_counters():
    spans = [{"name": "cell", "t": 5.0, "dur_s": 0.5, "args": {"lane": 1}},
             {"name": "cell", "t": 6.0, "dur_s": 0.25, "args": {}}]
    doc = chrome_trace(spans, {"mem.dram.self_share": 0.2}, "e2e test")
    slices = [r for r in doc["traceEvents"] if r["ph"] == "X"]
    assert [(r["ts"], r["dur"], r["tid"]) for r in slices] == \
        [(0.0, 500000.0, 1), (1e6, 250000.0, 0)]
    counters = [r for r in doc["traceEvents"] if r["ph"] == "C"]
    assert counters == [{"name": "mem.dram.self_share", "ph": "C",
                         "ts": 1.25e6, "pid": 0, "args": {"value": 0.2}}]
    names = [r["args"]["name"] for r in doc["traceEvents"] if r["ph"] == "M"]
    assert names == ["e2e test"]
