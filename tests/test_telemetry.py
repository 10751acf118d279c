"""Telemetry subsystem tests.

The two contracts that matter most:

* **non-perturbation** — a run with full telemetry produces byte-identical
  statistics to a run without it, for every scheduling policy and in both
  the event fast-forward and cycle-accurate loop modes;
* **lossless transport** — timelines and traces round-trip through
  ``RunResult`` serialisation, the persistent cache and worker transport
  without changing, and corrupt cache entries degrade to a miss.
"""

from __future__ import annotations

import json

import pytest

from repro.core.bcs import BCSScheduler
from repro.core.cke import MixedCKE
from repro.core.cta_schedulers import (RoundRobinCTAScheduler,
                                       StaticLimitCTAScheduler)
from repro.core.lcs import LCSScheduler
from repro.harness.cache import ResultCache
from repro.harness.jobs import SimJob
from repro.harness.runner import simulate
from repro.sim.config import GPUConfig
from repro.sim.gpu import GPU
from repro.sim.stats import RunResult
from repro.telemetry import (TelemetryError, TelemetryHub, TimelineResult,
                             chrome_trace, merge_chrome_traces, to_jsonl,
                             write_trace)
from repro.workloads.suite import make_kernel

SCALE = 0.05
SMALL = GPUConfig.small()


def _kernel(name="kmeans", scale=SCALE):
    return make_kernel(name, scale=scale)


def _policy(kind, kernels):
    if kind == "rr":
        return RoundRobinCTAScheduler(kernels)
    if kind == "static":
        return StaticLimitCTAScheduler(kernels, limit_per_sm=2)
    if kind == "lcs":
        return LCSScheduler(kernels)
    return BCSScheduler(kernels)      # "bcs"


def _strip_telemetry(result: RunResult) -> RunResult:
    clone = RunResult.from_dict(result.to_dict())
    clone.meta.pop("timeline", None)
    clone.meta.pop("trace", None)
    return clone


# --------------------------------------------------------------------------- #
# non-perturbation
# --------------------------------------------------------------------------- #

def _simulate(name, kind, *, config=SMALL, telemetry=None):
    kernel = _kernel(name)
    return simulate(kernel, config=config,
                    cta_scheduler=_policy(kind, [kernel]),
                    telemetry=telemetry)


@pytest.mark.parametrize("name", ["kmeans", "streaming"])
@pytest.mark.parametrize("kind", ["rr", "static", "lcs", "bcs"])
def test_telemetry_does_not_perturb_stats(name, kind):
    bare = _simulate(name, kind)
    hub = TelemetryHub(window=256, trace=True)
    instrumented = _simulate(name, kind, telemetry=hub)
    assert len(hub.events) > 0
    assert _strip_telemetry(instrumented) == _strip_telemetry(bare)


@pytest.mark.parametrize("window", [1, 97, 1000])
def test_fast_forward_vs_cycle_accurate_timeline(window):
    """Windowed sampling sees identical machine state in both loop modes."""
    results = []
    for cycle_accurate in (False, True):
        hub = TelemetryHub(window=window, trace=True)
        gpu = GPU(config=SMALL, telemetry=hub)
        gpu.run(RoundRobinCTAScheduler([_kernel(scale=0.03)]),
                cycle_accurate=cycle_accurate)
        results.append((gpu.cycle, hub.timeline_result(),
                        hub.trace_events()))
    (cyc_a, tl_a, ev_a), (cyc_b, tl_b, ev_b) = results
    assert cyc_a == cyc_b
    assert tl_a == tl_b
    assert ev_a == ev_b
    assert len(tl_a) >= 1


def test_cycle_accurate_equivalence_with_lcs_trace():
    results = []
    for cycle_accurate in (False, True):
        hub = TelemetryHub(window=500, trace=True)
        gpu = GPU(config=SMALL, telemetry=hub)
        gpu.run(LCSScheduler([_kernel()]), cycle_accurate=cycle_accurate)
        results.append((gpu.cycle, hub.timeline_result(), hub.trace_events()))
    assert results[0] == results[1]


# --------------------------------------------------------------------------- #
# timeline contents
# --------------------------------------------------------------------------- #

def test_timeline_columns_and_boundaries():
    hub = TelemetryHub(window=500)
    kernel = _kernel()
    result = simulate(kernel, cta_scheduler=LCSScheduler([kernel]),
                      telemetry=hub)
    tl = result.meta["timeline"]
    assert isinstance(tl, TimelineResult)
    assert tl.window == 500
    for column in ("ipc", "resident_ctas", "resident_warps", "l1_miss_rate",
                   "l2_miss_rate", "l1_mshr", "l2_mshr", "dram_bus_util",
                   "stall_ready", "stall_alu", "stall_mem", "stall_barrier"):
        assert len(tl.series(column)) == len(tl)
    # Interior boundaries are window-aligned; the final one is the run end.
    assert all(c % 500 == 0 for c in tl.cycles[:-1])
    assert tl.cycles[-1] == result.cycles
    assert tl.cycles == sorted(tl.cycles)
    # Per-SM CTA rows match the machine width; everything idle at the end.
    assert all(len(row) == len(result.issued_by_sm)
               for row in tl.ctas_per_sm)
    assert sum(tl.ctas_per_sm[-1]) == 0
    # Stall mix rows are fractions summing to ~1 (or all-zero when idle).
    for i in range(len(tl)):
        row = tl.row(i)
        mix = (row["stall_ready"] + row["stall_alu"] + row["stall_mem"]
               + row["stall_barrier"])
        assert mix == pytest.approx(1.0, abs=1e-9) or mix == 0.0


@pytest.mark.parametrize("names,policy", [
    (("kmeans",), ("lcs",)),                              # E1-style run
    (("kmeans", "iindex", "streaming", "compute"), ("rr",)),  # E16 workload
])
def test_windowed_series_for_experiment_workloads(names, policy):
    job = SimJob(names=names, scale=SCALE, policy=policy, config=SMALL,
                 timeline_window=400, trace=True)
    result = job.execute()
    tl = result.meta["timeline"]
    assert len(tl) >= 2
    assert any(v > 0 for v in tl.series("ipc"))
    assert "l1_miss_rate" in tl.columns
    dispatches = [e for e in result.meta["trace"]
                  if e["kind"] == "cta.dispatch"]
    total_ctas = sum(ks.num_ctas for ks in result.kernels.values())
    assert len(dispatches) == total_ctas


def test_timeline_csv_and_dict_round_trip():
    hub = TelemetryHub(window=300)
    simulate(_kernel(), config=SMALL, telemetry=hub)
    tl = hub.timeline_result()
    assert TimelineResult.from_dict(tl.to_dict()) == tl
    lines = tl.to_csv().splitlines()
    assert lines[0].startswith("cycle,")
    assert len(lines) == len(tl) + 1
    with pytest.raises(KeyError):
        tl.series("no_such_column")


# --------------------------------------------------------------------------- #
# event trace
# --------------------------------------------------------------------------- #

def test_trace_event_kinds_and_counts():
    hub = TelemetryHub(trace=True)
    result = _simulate("kmeans", "lcs", telemetry=hub)
    events = result.meta["trace"]
    kinds = [e["kind"] for e in events]
    num_ctas = result.kernel("kmeans").num_ctas
    assert kinds.count("cta.dispatch") == num_ctas
    assert kinds.count("cta.complete") == num_ctas
    assert kinds.count("kernel.start") == 1
    assert kinds.count("kernel.done") == 1
    assert kinds[0] == "run.start" and kinds[-1] == "run.end"
    assert all(e["cycle"] <= result.cycles for e in events)


def test_lcs_decision_event_payload():
    hub = TelemetryHub(trace=True)
    kernel = _kernel()
    result = simulate(kernel, cta_scheduler=LCSScheduler([kernel]),
                      telemetry=hub)
    decisions = [e for e in result.meta["trace"]
                 if e["kind"] == "lcs.decision"]
    assert len(decisions) == 1
    payload = decisions[0]["payload"]
    decision = result.meta["lcs_decision"]
    assert payload["n_star"] == decision.n_star
    assert payload["occupancy"] == decision.occupancy
    assert payload["kernel"] == "kmeans"
    assert payload["issue_counts"] == list(decision.issue_counts)
    monitors = [e for e in result.meta["trace"] if e["kind"] == "lcs.monitor"]
    assert len(monitors) == 1
    assert decisions[0]["cycle"] == decision.decided_cycle


def test_bcs_block_events():
    hub = TelemetryHub(trace=True)
    kernel = _kernel("stencil")
    scheduler = BCSScheduler([kernel], block_size=2)
    result = simulate(kernel, config=SMALL,
                      cta_scheduler=scheduler, telemetry=hub)
    blocks = [e for e in result.meta["trace"] if e["kind"] == "bcs.block"]
    assert len(blocks) == scheduler.blocks_dispatched
    assert sum(e["payload"]["size"] for e in blocks) \
        == result.kernel("stencil").num_ctas
    for event in blocks:
        assert {"kernel", "block_seq", "sm", "first_cta",
                "size"} <= set(event["payload"])


def test_cke_phase_events_in_order():
    kernels = [_kernel("kmeans"), _kernel("compute")]
    hub = TelemetryHub(trace=True)
    result = simulate(kernels, config=SMALL,
                      cta_scheduler=MixedCKE(kernels, rule="tail",
                                             param=0.5),
                      telemetry=hub)
    phases = [e["payload"]["phase"] for e in result.meta["trace"]
              if e["kind"] == "cke.phase"]
    assert phases[0] == "monitor"
    assert "drain" in phases
    if "mixed" in phases:     # LCS guard may veto the throttle
        assert phases.index("mixed") < phases.index("drain")
    assert result.meta["trace"][0]["kind"] == "run.start"


# --------------------------------------------------------------------------- #
# exporters
# --------------------------------------------------------------------------- #

def _traced_run():
    hub = TelemetryHub(window=500, trace=True)
    result = _simulate("kmeans", "lcs", telemetry=hub)
    return hub, result


def test_jsonl_export_parses_line_by_line():
    hub, _ = _traced_run()
    lines = to_jsonl(hub.events).splitlines()
    assert len(lines) == len(hub.events)
    for line in lines:
        record = json.loads(line)
        assert set(record) == {"kind", "cycle", "payload"}


def test_chrome_trace_structure():
    hub, result = _traced_run()
    doc = chrome_trace(hub.events, timeline=hub.timeline_result())
    events = doc["traceEvents"]
    assert isinstance(events, list) and events
    for record in events:
        assert record["ph"] in {"M", "X", "i", "C"}
        assert "pid" in record
        assert record["ph"] == "M" or "ts" in record
    slices = [r for r in events if r["ph"] == "X"]
    assert len(slices) == result.kernel("kmeans").num_ctas
    assert all(r["dur"] >= 0 for r in slices)
    assert all(0 <= r["ts"] <= result.cycles for r in slices)
    counters = [r for r in events if r["ph"] == "C"]
    assert {r["name"] for r in counters} >= {"ipc", "l1_miss_rate"}
    json.dumps(doc)    # the document must be pure-JSON serialisable


def test_merge_and_write_trace(tmp_path):
    hub_a, _ = _traced_run()
    hub_b, _ = _traced_run()
    doc = merge_chrome_traces([
        ("a", hub_a.events, hub_a.timeline_result()),
        ("b", hub_b.events, None),
    ])
    assert {r["pid"] for r in doc["traceEvents"]} == {0, 1}
    chrome_path = write_trace(tmp_path / "t.json", hub_a.events,
                              timeline=hub_a.timeline_result())
    assert "traceEvents" in json.loads(chrome_path.read_text())
    jsonl_path = write_trace(tmp_path / "t.jsonl", hub_a.events)
    assert len(jsonl_path.read_text().splitlines()) == len(hub_a.events)


# --------------------------------------------------------------------------- #
# harness integration: jobs, cache, fingerprints
# --------------------------------------------------------------------------- #

def test_fingerprint_unchanged_without_telemetry():
    plain = SimJob(names=("kmeans",), scale=SCALE)
    riders = SimJob(names=("kmeans",), scale=SCALE,
                    timeline_window=500, trace=True)
    explicit_off = SimJob(names=("kmeans",), scale=SCALE,
                          timeline_window=None, trace=False)
    assert plain.fingerprint() == explicit_off.fingerprint()
    assert plain.fingerprint() != riders.fingerprint()
    assert riders.fingerprint() != SimJob(
        names=("kmeans",), scale=SCALE, timeline_window=999,
        trace=True).fingerprint()


def test_job_rejects_bad_window():
    with pytest.raises(ValueError):
        SimJob(names=("kmeans",), timeline_window=0)
    with pytest.raises(TelemetryError):
        TelemetryHub(window=0)


def test_hub_is_single_use():
    hub = TelemetryHub()
    GPU(config=SMALL, telemetry=hub)
    with pytest.raises(TelemetryError):
        GPU(config=SMALL, telemetry=hub)


def test_timeline_round_trips_result_cache(tmp_path):
    job = SimJob(names=("kmeans",), scale=SCALE, policy=("lcs",),
                 config=SMALL, timeline_window=500, trace=True)
    cache = ResultCache(tmp_path / "cache")
    cold = job.execute()
    cache.put(job.fingerprint(), cold)
    warm = cache.get(job.fingerprint())
    assert cache.hits == 1
    assert warm == cold
    assert isinstance(warm.meta["timeline"], TimelineResult)
    assert warm.meta["trace"] == cold.meta["trace"]


def test_corrupt_cache_entry_is_a_miss(tmp_path):
    job = SimJob(names=("kmeans",), scale=SCALE, config=SMALL,
                 timeline_window=500)
    cache = ResultCache(tmp_path / "cache")
    result = job.execute()
    cache.put(job.fingerprint(), result)
    path = cache.path_for(job.fingerprint())

    entry = json.loads(path.read_text())
    entry["result"]["meta"]["timeline"] = {"__timeline__": {"mangled": 1}}
    path.write_text(json.dumps(entry))
    assert cache.get(job.fingerprint()) is None
    # The mangled entry was quarantined, not left to re-miss forever.
    assert cache.corrupt_entries == 1
    assert not path.exists()
    assert path.with_name(path.name + ".corrupt").exists()

    cache.put(job.fingerprint(), result)
    raw = path.read_text()
    path.write_text(raw[: len(raw) // 2])
    assert cache.get(job.fingerprint()) is None
    assert cache.misses == 2
    assert cache.corrupt_entries == 2
