"""Trace exporters: JSONL and Chrome ``trace_event`` format.

The structured trace (:class:`~repro.telemetry.hub.TraceEvent` records, or
their plain-dict form as stored in ``RunResult.meta["trace"]``) exports two
ways:

* **JSONL** — one JSON object per line, in emission order; trivially
  greppable and streamable.
* **Chrome trace** — a ``{"traceEvents": [...]}`` document loadable in
  chrome://tracing (or https://ui.perfetto.dev).  CTA dispatch/complete
  pairs become duration (``"X"``) slices laid out per SM row, everything
  else becomes instant (``"i"``) events, and an optional
  :class:`~repro.telemetry.timeline.TimelineResult` contributes counter
  (``"C"``) tracks (IPC, occupancy, miss rates) so the windowed series
  render as graphs above the slices.  Timestamps are simulator cycles,
  reported in the trace's microsecond field — absolute units are arbitrary,
  relative layout is what matters.

Schema (JSONL)::

    {"kind": "<layer>.<what>", "cycle": <int>, "payload": {...}}

Kinds currently emitted: ``run.start``, ``run.end``, ``kernel.start``,
``kernel.done``, ``cta.dispatch``, ``cta.complete``, ``lcs.monitor``,
``lcs.decision``, ``bcs.block``, ``cke.phase``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

from .timeline import TimelineResult

#: Counter columns promoted to chrome counter tracks (in display order).
_COUNTER_COLUMNS = ("ipc", "resident_ctas", "l1_miss_rate", "l2_miss_rate",
                    "dram_bus_util")


def _as_dict(event: Any) -> dict[str, Any]:
    """Accept TraceEvent objects or their plain-dict form."""
    if isinstance(event, Mapping):
        return {"kind": event["kind"], "cycle": event["cycle"],
                "payload": dict(event.get("payload", {}))}
    return event.to_dict()


def to_jsonl(events: Iterable[Any]) -> str:
    """One JSON object per line, in emission order."""
    return "\n".join(json.dumps(_as_dict(event), sort_keys=True)
                     for event in events)


def chrome_trace(events: Iterable[Any], *,
                 timeline: TimelineResult | None = None,
                 pid: int = 0, label: str = "repro") -> dict[str, Any]:
    """Build a chrome://tracing document from one run's events.

    CTA lifetimes (dispatch→complete, keyed by kernel+CTA id) become
    duration slices with ``tid`` = SM id; unmatched dispatches (a run that
    errored out) fall back to zero-duration slices.
    """
    records: list[dict[str, Any]] = [{
        "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
        "args": {"name": label},
    }]
    open_ctas: dict[tuple[str, int], dict[str, Any]] = {}
    for event in events:
        data = _as_dict(event)
        kind, cycle, payload = data["kind"], data["cycle"], data["payload"]
        if kind == "cta.dispatch":
            open_ctas[(payload["kernel"], payload["cta"])] = data
            continue
        if kind == "cta.complete":
            start = open_ctas.pop((payload["kernel"], payload["cta"]), None)
            begin = start["cycle"] if start is not None else cycle
            args = dict(start["payload"]) if start is not None else {}
            args.update(payload)
            records.append({
                "name": f"{payload['kernel']}/cta{payload['cta']}",
                "cat": "cta", "ph": "X", "ts": begin,
                "dur": max(cycle - begin, 0), "pid": pid,
                "tid": payload["sm"], "args": args,
            })
            continue
        records.append({
            "name": kind, "cat": kind.partition(".")[0], "ph": "i",
            "ts": cycle, "pid": pid, "tid": payload.get("sm", 0),
            "s": "g", "args": payload,
        })
    for key, data in open_ctas.items():   # never completed (error paths)
        payload = data["payload"]
        records.append({
            "name": f"{payload['kernel']}/cta{payload['cta']}",
            "cat": "cta", "ph": "X", "ts": data["cycle"], "dur": 0,
            "pid": pid, "tid": payload.get("sm", 0), "args": payload,
        })
    if timeline is not None:
        for column in _COUNTER_COLUMNS:
            if column not in timeline.columns:
                continue
            series = timeline.columns[column]
            for boundary, value in zip(timeline.cycles, series):
                records.append({
                    "name": column, "ph": "C",
                    "ts": boundary - timeline.window, "pid": pid,
                    "args": {column: value},
                })
    return {"traceEvents": records, "displayTimeUnit": "ms",
            "otherData": {"source": "repro.telemetry",
                          "time_unit": "cycles"}}


def merge_chrome_traces(
        named: Sequence[tuple[str, Iterable[Any], TimelineResult | None]],
        *, engine_events: Iterable[Mapping[str, Any]] | None = None,
        drift_records: Iterable[Mapping[str, Any]] | None = None,
) -> dict[str, Any]:
    """Merge several runs into one document, one ``pid`` lane per run.

    ``named`` is a sequence of ``(label, events, timeline_or_None)``.

    ``engine_events`` optionally adds the batch engine's resilience trace
    (``job.retry``, ``job.timeout``, ``job.failed``, ``worker.respawn``,
    ``cache.write_error`` — see ``BatchReport.events``) as one extra lane.
    Those records carry wall-clock seconds, not cycles, so the lane has
    its own time base; what matters is the ordering of recovery actions.

    ``drift_records`` optionally adds a verification lane (see
    :func:`drift_lane`): golden drift, refmodel divergences and fuzz
    violations rendered as instant events, refmodel ones at their first
    divergent cycle.
    """
    merged: list[dict[str, Any]] = []
    for pid, (label, events, timeline) in enumerate(named):
        doc = chrome_trace(events, timeline=timeline, pid=pid, label=label)
        merged.extend(doc["traceEvents"])
    next_pid = len(named)
    engine_records = list(engine_events or ())
    if engine_records:
        engine_pid = next_pid
        next_pid += 1
        merged.append({"name": "process_name", "ph": "M", "pid": engine_pid,
                       "tid": 0, "args": {"name": "engine (wall-clock)"}})
        for event in engine_records:
            merged.append({
                "name": event["kind"], "cat": "engine", "ph": "i",
                "ts": float(event.get("t", 0.0)) * 1e6,   # s -> us
                "pid": engine_pid, "tid": 0, "s": "g",
                "args": dict(event.get("payload", {})),
            })
    drift = list(drift_records or ())
    if drift:
        merged.extend(drift_lane(drift, pid=next_pid))
    return {"traceEvents": merged, "displayTimeUnit": "ms",
            "otherData": {"source": "repro.telemetry",
                          "time_unit": "cycles"}}


def drift_lane(records: Iterable[Mapping[str, Any]],
               *, pid: int = 0) -> list[dict[str, Any]]:
    """Render verification failures as one chrome-trace lane.

    ``records`` are the JSONL failure dicts produced by the
    ``repro.verify`` layers (``kind`` of ``golden``, ``refmodel`` or
    ``fuzz``; see ``repro.verify.artifacts``).  Refmodel divergences land
    at their first divergent cycle so they line up against the counter
    tracks and CTA slices of the same run; golden drift and fuzz
    violations have no single cycle and sit at the origin.  Use with
    :func:`merge_chrome_traces` to overlay the drift lane on a telemetry
    trace of the diverging run.
    """
    events: list[dict[str, Any]] = [{
        "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
        "args": {"name": "verify (drift)"},
    }]
    for record in records:
        kind = record.get("kind", "unknown")
        if kind == "header":
            continue
        if kind == "golden":
            name = f"drift:{record.get('label', '?')}"
            ts, args = 0, {"lanes": record.get("lanes", []),
                           "status": record.get("status"),
                           "diffs": record.get("diffs", {})}
        elif kind == "refmodel":
            name = f"diverged:{record.get('label', '?')}"
            ts = int(record.get("window_cycle") or 0)
            args = {"first_window": record.get("first_window"),
                    "window_diffs": record.get("window_diffs", []),
                    "stat_diffs": record.get("stat_diffs", [])}
        elif kind == "fuzz":
            name = f"violation:{record.get('invariant', '?')}"
            ts, args = 0, {"seed": record.get("seed"),
                           "detail": record.get("detail"),
                           "shrunk": record.get("shrunk")}
        else:
            name, ts, args = f"verify:{kind}", 0, dict(record)
        events.append({"name": name, "cat": "verify", "ph": "i",
                       "ts": ts, "pid": pid, "tid": 0, "s": "p",
                       "args": args})
    return events


def write_trace(path: str | Path, events: Iterable[Any], *,
                timeline: TimelineResult | None = None) -> Path:
    """Write a trace file; format chosen by suffix.

    ``.jsonl`` → JSONL; anything else (``.json``, ``.trace``) → Chrome
    trace_event JSON.
    """
    path = Path(path)
    if path.suffix == ".jsonl":
        payload = to_jsonl(events) + "\n"
    else:
        payload = json.dumps(chrome_trace(events, timeline=timeline,
                                          label=path.stem))
    path.write_text(payload, encoding="utf-8")
    return path
