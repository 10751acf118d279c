"""Order statistics and the parent-vs-change comparison.

A *set* is ``{"label", "trace", "seconds", "runs": {workload: [run, ...]}}``
where each run is the JSON object one benchmark run prints (plus its
``seed`` and ``digest``).  :func:`compare` applies the bounds of
``BENCHMARK.json`` to two sets, one row per workload and metric.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Sequence

#: Percentiles a timing's tail may be reported at, in per mille.
TAIL_LADDER = (999, 990, 950, 900, 750, 500)

#: Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10


def tail_percentile(count: int) -> float | None:
    """The highest ladder percentile with at least :data:`MIN_BEYOND` of
    ``count`` samples beyond it (None when even the median has fewer)."""
    for per_mille in TAIL_LADDER:
        if count * (1000 - per_mille) >= MIN_BEYOND * 1000:
            return per_mille / 10
    return None


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear interpolation between closest ranks (inclusive method)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = (len(ordered) - 1) * pct / 100
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), the quartiles as
    ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else 0.0


@dataclass
class Row:
    workload: str
    metric: str
    unit: str
    parent: tuple[float, float, float]
    change: tuple[float, float, float]
    worse: float          # share by which the change's median is worse
    bound: float
    #: ok | REGRESSION | unresolved | better (every change run beats
    #: every parent run although the parent's spread exceeds the bound)
    verdict: str

    def render(self) -> str:
        def side(q):
            return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"
        return (f"{self.workload:<12} {self.metric:<14} {self.unit:<9} "
                f"{side(self.parent):<30} {side(self.change):<30} "
                f"{-self.worse:+8.1%} {self.bound:>5.0%}  {self.verdict}")


HEADER = (f"{'workload':<12} {'metric':<14} {'unit':<9} "
          f"{'parent median [q1, q3]':<30} {'change median [q1, q3]':<30} "
          f"{'change':>8} {'bound':>5}  verdict")


def _values(runs: list[dict], name: str) -> list[float]:
    return [run["metrics"][name]["value"] for run in runs]


def _failed_frac(runs: list[dict]) -> float:
    attempted = sum(run["attempted"] for run in runs)
    return sum(run["failed"] for run in runs) / attempted if attempted else 0.0


def compare(parent: dict, change: dict, spec: dict
            ) -> tuple[list[Row], list[str]]:
    """Rows for every workload and end-to-end metric, plus the problems
    that fail the comparison (regressions, a rise in failed operations,
    incorrect runs, missing data).

    A pair is *unresolved* when the parent's own interquartile spread
    exceeds the bound, unless every change run beats every parent run.
    """
    rows: list[Row] = []
    problems: list[str] = []
    for workload in (w["name"] for w in spec["workloads"]):
        runs_a = parent["runs"].get(workload, [])
        runs_b = change["runs"].get(workload, [])
        if not runs_a or not runs_b:
            problems.append(f"{workload}: no runs on one side")
            continue
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            lower = metric["better"] == "lower"
            a, b = _values(runs_a, name), _values(runs_b, name)
            qa, qb = quartiles(a), quartiles(b)
            worse = (qb[1] - qa[1]) / qa[1] if lower \
                else (qa[1] - qb[1]) / qa[1]
            if spread(a) > bound:
                beats = all((x < y) if lower else (x > y)
                            for x in b for y in a)
                verdict = "better" if beats else "unresolved"
            elif worse > bound:
                verdict = "REGRESSION"
                problems.append(f"{workload} {name}: median worse by "
                                f"{worse:.1%} > bound {bound:.0%}")
            else:
                verdict = "ok"
            rows.append(Row(workload, name, metric["unit"], qa, qb, worse,
                            bound, verdict))
        frac_a, frac_b = _failed_frac(runs_a), _failed_frac(runs_b)
        if frac_b > frac_a:
            problems.append(f"{workload}: failed_frac rose from "
                            f"{frac_a:.4f} to {frac_b:.4f}")
        if not all(run["correct"] for run in runs_b):
            problems.append(f"{workload}: a change run reported wrong output")
    return rows, problems
