"""The committed performance trajectory: one entry per performance change.

Reads two files of untraced runs, the parent's and the change's, and
appends one entry to ``BENCH_e2e.json``.  Either file is a set file in the
format ``benchmarks/e2e/run.py --out`` writes, or the captured stdout of
``run.py --workload W --seed S`` runs appended one after another (each run
is its ``digest W seed=S ...`` line followed by its final JSON line), which
is how alternating pairs of one workload are recorded.  The runs are meant
to alternate on one host: the i-th run of a workload on each side (all
runs of a file, in order) make pair i, and both must have used the same
seed.  For every workload and every end-to-end metric of
``BENCHMARK.json`` the entry keeps one record: the parent and change
medians, the number of pairs, the change's wins (ties count for neither
side) and the parent's interquartile range.  The entry also keeps the
tier-1 suite's wall time with the change.

    python3 benchmarks/trajectory.py parent.json change.json \\
        --title "what the change did" --tier1-s 345 --out BENCH_e2e.json

A change may claim a gain on a metric when it ran at least ten pairs,
wins at least nine tenths of them and its median beats the parent's by
more than the parent's interquartile range; the printed rows say which
records meet that rule.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
sys.path.insert(0, str(HERE / "e2e"))

from summary import quartiles  # noqa: E402


def load_runs(path: Path) -> dict[str, list[dict]]:
    """Every run of every set (or of the run log) in ``path``, per
    workload, in file order."""
    text = path.read_text()
    try:
        document = json.loads(text)
    except ValueError:
        return _log_runs(text, path)
    runs: dict[str, list[dict]] = {}
    for number, run_set in enumerate(document["sets"]):
        if run_set["trace"]:
            raise SystemExit(f"trajectory: set {number} of {path} is "
                             f"traced; end-to-end metrics need --trace 0")
        for workload, found in run_set["runs"].items():
            runs.setdefault(workload, []).extend(found)
    return runs


def _log_runs(text: str, path: Path) -> dict[str, list[dict]]:
    """The runs of captured ``run.py --workload W`` stdout: each JSON line
    after a ``digest W seed=S D`` line is one run of W at seed S."""
    runs: dict[str, list[dict]] = {}
    digest = None
    for line in text.splitlines():
        if line.startswith("digest "):
            digest = line.split()
        elif line.startswith("{") and digest is not None:
            _, workload, seed, value = digest
            run = json.loads(line)
            run["seed"] = int(seed.removeprefix("seed="))
            run["digest"] = value
            runs.setdefault(workload, []).append(run)
            digest = None
    if not runs:
        raise SystemExit(f"trajectory: {path} is neither a set file nor a "
                         f"log of run.py runs")
    return runs


def _g(value: float) -> float:
    return float(f"{value:.6g}")


def records(parent: dict[str, list[dict]], change: dict[str, list[dict]],
            spec: dict) -> list[dict]:
    """One record per workload both sides ran and end-to-end metric."""
    out = []
    for workload in (w["name"] for w in spec["workloads"]):
        pairs = list(zip(parent.get(workload, []), change.get(workload, [])))
        if not pairs:
            continue
        for a, b in pairs:
            if a["seed"] != b["seed"]:
                raise SystemExit(f"trajectory: {workload} pairs a parent run "
                                 f"at seed {a['seed']} with a change run at "
                                 f"seed {b['seed']}")
            for run in (a, b):
                missing = [m["name"] for m in spec["end_to_end"]
                           if m["name"] not in run["metrics"]]
                if missing:
                    raise SystemExit(f"trajectory: the {workload} run at seed "
                                     f"{run['seed']} has no {missing[0]}; "
                                     f"end-to-end metrics need --trace 0")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = [run["metrics"][name]["value"] for run, _ in pairs]
            b = [run["metrics"][name]["value"] for _, run in pairs]
            lower = metric["better"] == "lower"
            wins = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
            q1, parent_median, q3 = quartiles(a)
            out.append({
                "workload": workload, "metric": name, "unit": metric["unit"],
                "better": metric["better"], "pairs": len(pairs),
                "wins": wins, "parent_median": _g(parent_median),
                "change_median": _g(quartiles(b)[1]),
                "parent_iqr": _g(q3 - q1)})
    return out


#: Pairs a record needs before it can show a gain: with fewer, nine tenths
#: is met by every win (2 of 2 pairs).
MIN_PAIRS = 10


def meets_gain_rule(record: dict) -> bool:
    """At least :data:`MIN_PAIRS` pairs, wins in at least 9 of 10 of them
    and a median gap wider than the parent's interquartile range, in the
    better direction."""
    gap = record["parent_median"] - record["change_median"]
    if record["better"] == "higher":
        gap = -gap
    return record["pairs"] >= MIN_PAIRS \
        and 10 * record["wins"] >= 9 * record["pairs"] \
        and gap > record["parent_iqr"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="the parent's set file")
    parser.add_argument("change", type=Path, help="the change's set file")
    parser.add_argument("--title", required=True,
                        help="one line naming the change")
    parser.add_argument("--tier1-s", type=float, required=True,
                        help="wall seconds of the tier-1 suite with the "
                             "change")
    parser.add_argument("--out", type=Path, default=REPO / "BENCH_e2e.json",
                        help="the trajectory file to append to")
    args = parser.parse_args(argv)
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    entry = {"title": args.title, "tier1_s": args.tier1_s,
             "records": records(load_runs(args.parent),
                                load_runs(args.change), spec)}
    if not entry["records"]:
        raise SystemExit("trajectory: the two files share no workload")
    document = (json.loads(args.out.read_text()) if args.out.is_file()
                else {"entries": []})
    document["entries"].append(entry)
    args.out.write_text(json.dumps(document, indent=1) + "\n")
    for record in entry["records"]:
        print(f"{record['workload']:<12} {record['metric']:<14} "
              f"{record['parent_median']:>10.4g} -> "
              f"{record['change_median']:<10.4g} "
              f"wins {record['wins']}/{record['pairs']}, parent IQR "
              f"{record['parent_iqr']:.4g}"
              f"{'  gain' if meets_gain_rule(record) else ''}")
    print(f"trajectory: appended entry {len(document['entries']) - 1} to "
          f"{args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
