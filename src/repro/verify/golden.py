"""Golden-result regression store: the drift gate for the simulator.

Every "behaviour-identical" hot-path optimization so far has been guarded
only by the tier-1 tests; this module pins a whole *matrix* of end-to-end
results instead.  A :class:`GoldenStore` holds one digest-verified JSON
entry per matrix cell — the full :class:`~repro.sim.stats.RunResult`
rendering of a pinned ``(kernels x CTA scheduler x warp scheduler x
config)`` simulation, keyed by a human-readable label and guarded by the
job's :meth:`~repro.harness.jobs.SimJob.fingerprint` (so a silently edited
matrix definition is reported as *stale*, never silently re-baselined) and
a sha256 digest of the stored result payload (so a corrupted or
hand-edited golden is reported as *tampered*, never trusted).  Entries
are written and their strays swept through :mod:`repro.harness.files`;
a failed write raises.

:func:`verify_goldens` re-runs the matrix through the batch engine with
the persistent result cache **bypassed** (a drift gate that reads its own
cache would happily confirm stale numbers) and compares bitwise: any
differing scalar anywhere in the canonical result rendering is drift.
Drift is classified per lane —

* ``stats``     — the simulated statistics themselves (cycles, IPC,
  cache/DRAM counters, per-kernel numbers): the lane that invalidates
  paper claims;
* ``timeline``  — the windowed telemetry series diverged;
* ``telemetry`` — the structured event trace or other meta diverged.

— so a perturbation that only moves probe samples is distinguishable from
one that moves the reproduced results.  The ``repro-verify`` CLI
(:mod:`repro.verify.cli`) drives this and exits non-zero on any drift.

Refreshing goldens after an *intentional* model change::

    repro-verify golden --tier smoke --update
    repro-verify golden --tier full  --update

(see docs/ROBUSTNESS.md, "Verification").
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Sequence

from ..harness.cache import ResultCache
from ..harness.engine import run_batch
from ..harness.files import sweep, write_atomic
from ..harness.jobs import SimJob
from ..sim.config import GPUConfig

#: On-disk golden entry format.
_GOLDEN_FORMAT = 1

#: Drift lanes, in triage-priority order.
DRIFT_LANES = ("stats", "timeline", "telemetry")

#: Meta keys that belong to the ``telemetry`` lane (everything else in the
#: result rendering outside ``meta.timeline`` is the ``stats`` lane).
_TELEMETRY_META_KEYS = ("trace",)


class GoldenError(RuntimeError):
    """A golden store entry is unusable (tampered, wrong format)."""


def _repo_root() -> Path:
    """The repository root for src-layout checkouts (fallback: CWD)."""
    root = Path(__file__).resolve().parents[3]
    if (root / "goldens").is_dir() or (root / "pyproject.toml").is_file():
        return root
    return Path.cwd()


#: Default location of the committed golden matrices.
DEFAULT_GOLDEN_ROOT = _repo_root() / "goldens"


def canonical_json(payload: Any) -> str:
    """The canonical rendering used for digests and bitwise comparison."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def result_digest(result_dict: dict[str, Any]) -> str:
    return hashlib.sha256(
        canonical_json(result_dict).encode("utf-8")).hexdigest()


def canonical_result(result_dict: dict[str, Any]) -> dict[str, Any]:
    """Round-trip a result dict through canonical JSON.

    Goldens live on disk as JSON, which erases the tuple/list distinction
    (e.g. LCS decision riders carry tuples in a live ``to_dict()``).  Both
    sides of every diff must pass through this so only *value* drift is
    reported, never serialization-shape drift.
    """
    return json.loads(canonical_json(result_dict))


# --------------------------------------------------------------------------- #
# the pinned matrix
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class GoldenCell:
    """One pinned matrix cell: a label and the job that reproduces it."""

    label: str
    job: SimJob

    def __post_init__(self) -> None:
        if not self.label or any(c in self.label for c in "/\\ \t\n"):
            raise GoldenError(f"bad golden cell label {self.label!r} "
                              "(no spaces or path separators)")


def _cell(label: str, names, policy, warp="gto", config=None,
          scale=0.05, **riders) -> GoldenCell:
    names = (names,) if isinstance(names, str) else tuple(names)
    return GoldenCell(label, SimJob(
        names=names, scale=scale, policy=policy, warp=warp,
        config=config if config is not None else GPUConfig(), **riders))


def golden_matrix(tier: str = "smoke") -> list[GoldenCell]:
    """The pinned verification matrix for a tier (``smoke`` or ``full``).

    Cells are chosen to cover every scheduling layer the paper's claims
    rest on: the occupancy baseline, LCS (lazy CTA scheduling), BCS+BAWS
    (block CTA scheduling with the block-aware warp scheduler), the
    combined policy, DynCTA, concurrent-kernel execution, and both
    hardware classes.  Two cells carry telemetry riders so the
    ``timeline`` and ``telemetry`` drift lanes are exercised bitwise too.
    """
    small = GPUConfig.small()
    smoke = [
        _cell("kmeans-rr-gto-fermi", "kmeans", ("rr",)),
        _cell("kmeans-lcs-gto-fermi", "kmeans", ("lcs",)),
        _cell("stencil-bcs2-baws-fermi", "stencil", ("bcs", 2, None),
              warp="baws"),
        _cell("compute-rr-lrr-fermi", "compute", ("rr",), warp="lrr"),
        _cell("kmeans-static2-gto-small", "kmeans", ("static", 2),
              config=small),
        _cell("stencil-rr-twolevel-small", "stencil", ("rr",),
              warp="two-level", config=small),
        _cell("spmv-dyncta-gto-small", "spmv", ("dyncta",), config=small),
        _cell("kmeans-rr-gto-fermi-timeline", "kmeans", ("rr",),
              timeline_window=500),
        _cell("kmeans-lcs-gto-small-trace", "kmeans", ("lcs",),
              config=small, trace=True),
    ]
    if tier == "smoke":
        return smoke
    if tier != "full":
        raise GoldenError(f"unknown golden tier {tier!r}; "
                          f"use 'smoke' or 'full'")
    kepler = GPUConfig.kepler_class()
    full = smoke + [
        # LCS across more benchmarks and both decision rules.
        _cell("bfs-lcs-gto-fermi", "bfs", ("lcs",)),
        _cell("spmv-lcs-gto-fermi", "spmv", ("lcs",)),
        _cell("streaming-lcs-gto-fermi", "streaming", ("lcs",)),
        _cell("kmeans-lcs-coverage-gto-fermi", "kmeans",
              ("lcs", "coverage", None)),
        _cell("kmeans-lcs-threshold-gto-fermi", "kmeans",
              ("lcs", "threshold", None)),
        # BCS / combined / block-aware interplay.
        _cell("stencil-lcsbcs2-baws-fermi", "stencil",
              ("lcs+bcs", 2, "tail", None), warp="baws"),
        _cell("hotspot-bcs2-baws-fermi", "hotspot", ("bcs", 2, None),
              warp="baws"),
        _cell("stencil-bcs2-gto-fermi", "stencil", ("bcs", 2, None)),
        # Warp-scheduler axis under the occupancy baseline.
        _cell("kmeans-rr-baws-fermi", "kmeans", ("rr",), warp="baws"),
        _cell("kmeans-rr-twolevel-fermi", "kmeans", ("rr",),
              warp="two-level"),
        _cell("kmeans-rr-swl8-fermi", "kmeans", ("rr",), warp=("swl", 8)),
        _cell("stencil-rr-lrr-fermi", "stencil", ("rr",), warp="lrr"),
        # Alternative CTA schedulers.
        _cell("kmeans-depthfirst-gto-fermi", "kmeans", ("depth-first",)),
        _cell("matmul-dyncta-gto-fermi", "matmul", ("dyncta",)),
        _cell("gemv-static3-gto-fermi", "gemv", ("static", 3)),
        # Concurrent kernel execution.
        _cell("kmeans+stencil-sequential-gto-fermi", ("kmeans", "stencil"),
              ("sequential",)),
        _cell("kmeans+stencil-spatial-gto-fermi", ("kmeans", "stencil"),
              ("spatial",)),
        _cell("kmeans+compute-smk-gto-fermi", ("kmeans", "compute"),
              ("smk",)),
        _cell("kmeans+stencil-mixed-gto-fermi", ("kmeans", "stencil"),
              ("mixed", "tail", None)),
        # Hardware-class robustness.
        _cell("kmeans-rr-gto-kepler", "kmeans", ("rr",), config=kepler),
        _cell("kmeans-lcs-gto-kepler", "kmeans", ("lcs",), config=kepler),
        # A larger-scale cell so scale-dependent drift is visible.
        _cell("kmeans-lcs-gto-fermi-s10", "kmeans", ("lcs",), scale=0.10),
        _cell("stencil-bcs2-baws-fermi-s10", "stencil", ("bcs", 2, None),
              warp="baws", scale=0.10),
    ]
    labels = [cell.label for cell in full]
    if len(labels) != len(set(labels)):
        raise GoldenError("duplicate labels in the golden matrix")
    return full


# --------------------------------------------------------------------------- #
# the store
# --------------------------------------------------------------------------- #

class GoldenStore:
    """A directory of ``<label>.json`` golden entries (one per cell).

    An interrupted ``--update`` can leave a ``.tmp-*`` stray but never a
    half-written golden; strays are removed by :meth:`clear_strays` (and
    ``make clean-state``).
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)

    def __repr__(self) -> str:
        return f"GoldenStore({str(self.root)!r}, entries={len(self)})"

    def path_for(self, label: str) -> Path:
        return self.root / f"{label}.json"

    def put(self, cell: GoldenCell, result_dict: dict[str, Any]) -> Path:
        entry = {
            "format": _GOLDEN_FORMAT,
            "label": cell.label,
            "fingerprint": cell.job.fingerprint(),
            "digest": result_digest(result_dict),
            "result": result_dict,
        }
        path = self.path_for(cell.label)
        write_atomic(path, json.dumps(entry, sort_keys=True, indent=1) + "\n")
        return path

    def get(self, label: str) -> dict[str, Any] | None:
        """The verified entry for a label, or None when absent.

        Raises :class:`GoldenError` when the entry exists but cannot be
        trusted (bad JSON, unknown format, digest mismatch) — a golden
        that fails its own integrity check must never silently pass or
        silently miss.
        """
        path = self.path_for(label)
        try:
            raw = path.read_text(encoding="utf-8")
        except OSError:
            return None
        try:
            entry = json.loads(raw)
            if entry.get("format") != _GOLDEN_FORMAT:
                raise ValueError(f"unknown golden format in {path}")
            result = entry["result"]
            digest = entry["digest"]
        except (ValueError, KeyError, TypeError) as error:
            raise GoldenError(f"golden entry {path} is unreadable: "
                              f"{error}") from error
        if result_digest(result) != digest:
            raise GoldenError(f"golden entry {path} failed its digest "
                              "check (tampered or corrupted); regenerate "
                              "with --update")
        return entry

    def labels(self) -> list[str]:
        return sorted(p.stem for p in self.root.glob("*.json")
                      if not p.name.startswith(".tmp-"))

    def __len__(self) -> int:
        return len(self.labels())

    def clear_strays(self) -> int:
        """Remove ``.tmp-*`` leftovers from interrupted updates."""
        return sweep(self.root, ".tmp-*")


# --------------------------------------------------------------------------- #
# bitwise diffing and drift classification
# --------------------------------------------------------------------------- #

def diff_paths(golden: Any, fresh: Any, prefix: str = "",
               limit: int = 2048) -> list[tuple[str, Any, Any]]:
    """Every leaf path where two JSON renderings differ, as
    ``(path, golden_value, fresh_value)`` tuples (depth-first order)."""
    diffs: list[tuple[str, Any, Any]] = []

    def walk(a: Any, b: Any, path: str) -> None:
        if len(diffs) >= limit:
            return
        if isinstance(a, dict) and isinstance(b, dict):
            for key in sorted(set(a) | set(b)):
                sub = f"{path}.{key}" if path else str(key)
                if key not in a:
                    diffs.append((sub, "<absent>", b[key]))
                elif key not in b:
                    diffs.append((sub, a[key], "<absent>"))
                else:
                    walk(a[key], b[key], sub)
            return
        if isinstance(a, list) and isinstance(b, list):
            if len(a) != len(b):
                diffs.append((f"{path}.<len>", len(a), len(b)))
            for i, (x, y) in enumerate(zip(a, b)):
                walk(x, y, f"{path}[{i}]")
            return
        # Bitwise: exact type-and-value equality (1 != 1.0 is drift —
        # a counter silently becoming a float is a real change).
        if type(a) is not type(b) or a != b:
            diffs.append((path, a, b))

    walk(golden, fresh, prefix)
    return diffs


def split_lanes(result_dict: dict[str, Any]) -> dict[str, Any]:
    """Split a RunResult rendering into its drift-lane projections."""
    meta = dict(result_dict.get("meta", {}))
    timeline = meta.pop("timeline", None)
    telemetry = {key: meta.pop(key) for key in _TELEMETRY_META_KEYS
                 if key in meta}
    stats = {key: value for key, value in result_dict.items()
             if key != "meta"}
    stats["meta"] = meta   # scheduler names, kernel list, lcs_decision...
    return {"stats": stats, "timeline": timeline, "telemetry": telemetry}


def classify_drift(golden_result: dict[str, Any],
                   fresh_result: dict[str, Any]
                   ) -> dict[str, list[tuple[str, Any, Any]]]:
    """Per-lane diffs between two result renderings (empty = no drift)."""
    golden_lanes = split_lanes(golden_result)
    fresh_lanes = split_lanes(fresh_result)
    drift: dict[str, list[tuple[str, Any, Any]]] = {}
    for lane in DRIFT_LANES:
        diffs = diff_paths(golden_lanes[lane], fresh_lanes[lane])
        if diffs:
            drift[lane] = diffs
    return drift


# --------------------------------------------------------------------------- #
# verification
# --------------------------------------------------------------------------- #

@dataclass
class CellVerdict:
    """What the gate concluded about one matrix cell.

    ``status``: ``ok`` | ``drift`` | ``missing`` (no golden on disk) |
    ``stale`` (the matrix definition changed since the golden was taken) |
    ``error`` (the re-run itself failed) | ``updated``.
    """

    label: str
    fingerprint: str
    status: str
    lanes: list[str] = field(default_factory=list)
    diffs: dict[str, list[tuple[str, Any, Any]]] = field(default_factory=dict)
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.status in ("ok", "updated")

    def to_record(self) -> dict[str, Any]:
        """JSONL triage-artifact rendering (see repro.verify.artifacts)."""
        record: dict[str, Any] = {
            "kind": "golden",
            "label": self.label,
            "fingerprint": self.fingerprint,
            "status": self.status,
            "lanes": list(self.lanes),
        }
        if self.error:
            record["error"] = self.error
        if self.diffs:
            record["diffs"] = {
                lane: [{"path": path, "golden": a, "fresh": b}
                       for path, a, b in entries[:20]]
                for lane, entries in self.diffs.items()
            }
        return record


@dataclass
class GoldenReport:
    """Outcome of one golden-matrix verification (or update) pass."""

    tier: str
    verdicts: list[CellVerdict] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return all(verdict.ok for verdict in self.verdicts)

    def count(self, status: str) -> int:
        return sum(1 for v in self.verdicts if v.status == status)

    def failures(self) -> list[CellVerdict]:
        return [v for v in self.verdicts if not v.ok]

    def summary_line(self) -> str:
        parts = [f"{self.count('ok') + self.count('updated')} ok"]
        for status in ("drift", "missing", "stale", "error"):
            if self.count(status):
                parts.append(f"{self.count(status)} {status}")
        return (f"golden[{self.tier}]: {len(self.verdicts)} cell(s), "
                + ", ".join(parts) + f" in {self.elapsed:.1f}s")


def verify_goldens(cells: Sequence[GoldenCell], store: GoldenStore, *,
                   update: bool = False, workers: int = 1,
                   progress: Callable[[int, int], None] | None = None,
                   ) -> GoldenReport:
    """Re-run every cell (cache-bypassing) and diff against the store.

    ``update=True`` re-baselines: every cell's fresh result is written to
    the store and reported ``updated``.  Runs go through
    :func:`repro.harness.engine.run_batch` with ``cache=None`` — the
    drift gate must *never* replay the persistent result cache it is
    meant to audit.
    """
    import time
    started = time.perf_counter()
    report = GoldenReport(tier=store.root.name or "custom")
    labels = [cell.label for cell in cells]
    if len(labels) != len(set(labels)):
        raise GoldenError("duplicate labels in the golden matrix")

    batch = run_batch([cell.job for cell in cells], workers=workers,
                      cache=None, progress=progress)
    for cell, outcome in zip(cells, batch.outcomes):
        fingerprint = cell.job.fingerprint()
        if outcome.result is None:
            report.verdicts.append(CellVerdict(
                cell.label, fingerprint, "error",
                error=f"{outcome.status}: {outcome.error}"))
            continue
        fresh = canonical_result(outcome.result.to_dict())
        if update:
            store.put(cell, fresh)
            report.verdicts.append(CellVerdict(cell.label, fingerprint,
                                               "updated"))
            continue
        try:
            entry = store.get(cell.label)
        except GoldenError as error:
            report.verdicts.append(CellVerdict(cell.label, fingerprint,
                                               "error", error=str(error)))
            continue
        if entry is None:
            report.verdicts.append(CellVerdict(cell.label, fingerprint,
                                               "missing",
                                               error="no golden on disk; "
                                                     "run with --update"))
            continue
        if entry["fingerprint"] != fingerprint:
            report.verdicts.append(CellVerdict(
                cell.label, fingerprint, "stale",
                error=f"golden was taken for fingerprint "
                      f"{entry['fingerprint'][:12]}, matrix now describes "
                      f"{fingerprint[:12]} (job description or SIM_VERSION "
                      f"changed); re-baseline with --update"))
            continue
        drift = classify_drift(entry["result"], fresh)
        if drift:
            report.verdicts.append(CellVerdict(
                cell.label, fingerprint, "drift",
                lanes=[lane for lane in DRIFT_LANES if lane in drift],
                diffs=drift))
        else:
            report.verdicts.append(CellVerdict(cell.label, fingerprint,
                                               "ok"))
    report.elapsed = time.perf_counter() - started
    return report


__all__ = ["GoldenCell", "GoldenError", "GoldenReport", "GoldenStore",
           "CellVerdict", "DEFAULT_GOLDEN_ROOT", "DRIFT_LANES",
           "canonical_json", "classify_drift", "diff_paths",
           "golden_matrix", "canonical_result", "result_digest",
           "split_lanes", "verify_goldens"]

# ResultCache is intentionally imported (and unused) nowhere: the absence
# of a cache in run_batch above is the contract.  Keep the import out.
del ResultCache
