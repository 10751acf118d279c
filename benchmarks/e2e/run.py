"""End-to-end benchmark of the simulator, its harness and its daemon.

One run measures one workload and prints, as its last stdout line, one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``, its
per-layer metrics with ``--trace 1``).  The exit code is nonzero when an
output check fails.  See README.md for the workloads and metrics.

    python3 benchmarks/e2e/run.py --workload sim-mem --seed 1 --seconds 15 --trace 0
    python3 benchmarks/e2e/run.py --workload all --repeats 10 --out set.json
    python3 benchmarks/e2e/run.py compare A.json@0 B.json@1
    python3 benchmarks/e2e/run.py --record-digests

``--workload all`` runs every workload, each in a fresh subprocess, one
after another; ``--out FILE`` appends the runs to FILE as one *set*.
``compare`` reads two sets (``FILE@N`` is set N of FILE, default 0).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
SPEC = REPO / "BENCHMARK.json"


def _spec() -> dict:
    with open(SPEC, encoding="utf-8") as handle:
        return json.load(handle)


def _parser(spec: dict) -> argparse.ArgumentParser:
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark (see benchmarks/e2e/README.md).")
    parser.add_argument("--workload", choices=names + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=20140219,
                        help="workload seed, taken modulo 2**32 "
                             "(default: the seed the goldens are pinned to)")
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]),
                        help="measurement time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics instead of end-to-end")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs: checks the plumbing in seconds")
    parser.add_argument("--repeats", type=int, default=1,
                        help="with --workload all: runs per workload, on "
                             "seeds SEED, SEED+1, ...")
    parser.add_argument("--out", type=Path, default=None,
                        help="with --workload all: append the runs to this "
                             "file as one set")
    parser.add_argument("--record-digests", action="store_true",
                        help="rewrite digests.json at the golden seed")
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not (REPO / "src" / "repro").is_dir() or not SPEC.is_file():
        print(f"run.py: no program source under {REPO / 'src'} "
              f"(or no BENCHMARK.json); run it from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(REPO / "src"))
    spec = _spec()
    if argv[:1] == ["compare"]:
        return compare_main(argv[1:], spec)
    args = _parser(spec).parse_args(argv)
    if args.record_digests:
        return record_main()
    if args.workload == "all":
        return run_all(args, spec)
    return run_one(args, spec)


def run_one(args: argparse.Namespace, spec: dict) -> int:
    import workloads
    from common import OUT
    from tracer import chrome_trace

    seed = args.seed % 2 ** 32
    outcome = workloads.WORKLOADS[args.workload](seed, args.seconds,
                                                 bool(args.trace), args.smoke)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in outcome.metrics]
    if missing:
        raise SystemExit(f"run.py: {args.workload} did not measure {missing}")
    for note in outcome.notes:
        print(f"{args.workload}: {note}")
    for problem in outcome.problems:
        print(f"{args.workload}: WRONG OUTPUT: {problem}")
    for metric in wanted:
        print(f"{args.workload}: {metric['name']} = "
              f"{outcome.metrics[metric['name']]:.6g} {metric['unit']}")
    print(f"digest {args.workload} seed={seed} {outcome.digest}")
    if outcome.tracer is not None:
        OUT.mkdir(parents=True, exist_ok=True)
        path = OUT / f"trace-{args.workload}-{seed}.json"
        counters = {name: value for name, value in outcome.metrics.items()
                    if name.endswith("self_share")}
        path.write_text(json.dumps(chrome_trace(
            outcome.tracer.spans, counters, f"e2e {args.workload}")))
        print(f"{args.workload}: Chrome trace written to "
              f"{path.relative_to(REPO)}")
    correct = not outcome.problems
    print(json.dumps({
        "correct": correct, "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {m["name"]: {"value": outcome.metrics[m["name"]],
                                "unit": m["unit"]} for m in wanted}}))
    return 0 if correct else 1


def run_all(args: argparse.Namespace, spec: dict) -> int:
    """Every workload in a fresh subprocess, one after another."""
    from summary import quartiles

    names = [w["name"] for w in spec["workloads"]]
    runs: dict[str, list[dict]] = {name: [] for name in names}
    status = 0
    for repeat in range(args.repeats):
        for name in names:
            seed = args.seed + repeat
            command = [sys.executable, str(Path(__file__).resolve()),
                       "--workload", name, "--seed", str(seed),
                       "--seconds", str(args.seconds),
                       "--trace", str(args.trace)]
            if args.smoke:
                command.append("--smoke")
            done = subprocess.run(command, capture_output=True, text=True,
                                  timeout=900)
            lines = done.stdout.strip().splitlines()
            for line in lines[:-1]:
                print(line)
            try:
                run = json.loads(lines[-1])
            except (IndexError, ValueError):
                sys.stderr.write(done.stderr)
                print(f"{name} seed={seed}: no result (exit "
                      f"{done.returncode})")
                status = 1
                continue
            run["seed"] = seed
            run["digest"] = next((line.split()[-1] for line in lines
                                  if line.startswith("digest ")), "")
            runs[name].append(run)
            if done.returncode != 0:
                status = 1
    print(f"\n{'workload':<12} {'metric':<40} {'median':>12} "
          f"{'q1':>12} {'q3':>12}  unit   (n runs)")
    for name, results in runs.items():
        for metric in spec["per_layer" if args.trace else "end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            if values:
                q1, median, q3 = quartiles(values)
                print(f"{name:<12} {metric['name']:<40} {median:>12.6g} "
                      f"{q1:>12.6g} {q3:>12.6g}  {metric['unit']}  "
                      f"({len(values)})")
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        print(f"{name:<12} {'failed/attempted':<40} {failed:>12} "
              f"{attempted:>12}")
    if args.out is not None:
        document = (json.loads(args.out.read_text()) if args.out.is_file()
                    else {"sets": []})
        document["sets"].append({
            "label": f"{'traced' if args.trace else 'untraced'} seeds "
                     f"{args.seed}..{args.seed + args.repeats - 1}",
            "trace": args.trace, "seconds": args.seconds, "runs": runs})
        args.out.write_text(json.dumps(document, indent=1) + "\n")
        print(f"appended set {len(document['sets']) - 1} to {args.out}")
    return status


def _load_set(reference: str) -> dict:
    path, _, index = reference.partition("@")
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)["sets"][int(index or 0)]


def compare_main(argv: list[str], spec: dict) -> int:
    from summary import HEADER, compare

    parser = argparse.ArgumentParser(
        prog="run.py compare",
        description="Compare a change's set of runs with its parent's.")
    parser.add_argument("parent", help="FILE or FILE@N (set N of FILE)")
    parser.add_argument("change", help="FILE or FILE@N")
    args = parser.parse_args(argv)
    rows, problems = compare(_load_set(args.parent), _load_set(args.change),
                             spec)
    print(HEADER)
    for row in rows:
        print(row.render())
    for problem in problems:
        print(f"FAIL: {problem}")
    print("compare: " + ("FAILED" if problems else "no regression beyond "
                         "the bounds"))
    return 1 if problems else 0


def record_main() -> int:
    import workloads
    from common import DIGESTS

    DIGESTS.write_text(json.dumps(workloads.record_digests(), indent=1) + "\n")
    print(f"wrote {DIGESTS.relative_to(REPO)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
