"""benchmarks/trajectory.py: paired parent/change runs become one entry."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
SCRIPT = REPO / "benchmarks" / "trajectory.py"
METRICS = ("setup_s", "sim_kips", "latency_p50_s", "peak_rss_mb")


def run(seed: int, latency: float, kips: float = 10.0) -> dict:
    values = {"setup_s": 1.0, "sim_kips": kips, "latency_p50_s": latency,
              "peak_rss_mb": 100.0}
    return {"seed": seed, "correct": True, "attempted": 1, "failed": 0,
            "metrics": {name: {"value": values[name], "unit": "-"}
                        for name in METRICS}}


def write_sets(path: Path, *sets: list[dict]) -> Path:
    path.write_text(json.dumps({"sets": [
        {"label": "l", "trace": 0, "seconds": 15, "runs": {"exp-all": runs}}
        for runs in sets]}))
    return path


def write_log(path: Path, runs: list[dict]) -> Path:
    """The stdout of one ``run.py --workload exp-all`` call per run."""
    lines = []
    for run_ in runs:
        printed = {key: value for key, value in run_.items()
                   if key != "seed"}
        lines += ["exp-all: 1 cold build of 330 jobs, 9 warm replays",
                  "exp-all: latency_p50_s = 0.07 s",
                  f"digest exp-all seed={run_['seed']} d{run_['seed']}",
                  json.dumps(printed)]
    path.write_text("\n".join(lines) + "\n")
    return path


def trajectory(tmp_path: Path, parent: Path, change: Path):
    out = tmp_path / "BENCH_e2e.json"
    done = subprocess.run(
        [sys.executable, str(SCRIPT), str(parent), str(change),
         "--title", "t", "--tier1-s", "300", "--out", str(out)],
        capture_output=True, text=True, timeout=60)
    return done, out


def test_pairs_across_sets_become_one_entry(tmp_path):
    # One set per alternating run on each side, as a pair-by-pair driver
    # appends them; pair 3 is a tie on latency.
    parent = write_sets(tmp_path / "p.json",
                        *[[run(s, lat)] for s, lat in
                          ((1, 0.13), (2, 0.12), (3, 0.07), (4, 0.125))])
    change = write_sets(tmp_path / "c.json",
                        [run(1, 0.07), run(2, 0.075)], [run(3, 0.07)],
                        [run(4, 0.072, kips=9.0)])
    done, out = trajectory(tmp_path, parent, change)
    assert done.returncode == 0, done.stderr
    (entry,) = json.loads(out.read_text())["entries"]
    assert entry["title"] == "t" and entry["tier1_s"] == 300
    rows = {record["metric"]: record for record in entry["records"]}
    assert set(rows) == set(METRICS)
    latency = rows["latency_p50_s"]
    assert (latency["pairs"], latency["wins"]) == (4, 3)
    assert latency["parent_median"] == pytest.approx(0.1225)
    assert latency["change_median"] == pytest.approx(0.071)
    assert latency["parent_iqr"] == pytest.approx(0.12875 - 0.08250)
    assert rows["sim_kips"]["wins"] == 0     # higher is better; one loss
    # A second call appends a second entry.
    trajectory(tmp_path, parent, change)
    assert len(json.loads(out.read_text())["entries"]) == 2


def test_pairs_must_share_a_seed(tmp_path):
    parent = write_sets(tmp_path / "p.json", [run(1, 0.1)])
    change = write_sets(tmp_path / "c.json", [run(2, 0.1)])
    done, out = trajectory(tmp_path, parent, change)
    assert done.returncode != 0 and "seed" in done.stderr
    assert not out.exists()


def test_a_log_of_single_workload_runs_reads_like_a_set_file(tmp_path):
    parent_runs = [run(1, 0.13), run(2, 0.12), run(3, 0.07)]
    change_runs = [run(1, 0.07), run(2, 0.075), run(3, 0.07, kips=9.0)]
    entries = []
    for write in (write_sets, write_log):
        root = tmp_path / write.__name__
        root.mkdir()
        done, out = trajectory(root, write(root / "p", parent_runs),
                               write(root / "c", change_runs))
        assert done.returncode == 0, done.stderr
        entries.append(json.loads(out.read_text())["entries"])
    assert entries[0] == entries[1] and len(entries[0][0]["records"]) == 4
    # A traced run has no end-to-end metrics and is refused by name.
    traced = dict(run(1, 0.1), metrics={"sim.gpu.calls": {"value": 1}})
    done, out = trajectory(tmp_path, write_log(tmp_path / "t.log", [traced]),
                           write_log(tmp_path / "u.log", [run(1, 0.1)]))
    assert done.returncode != 0 and "--trace 0" in done.stderr


def gain_lines(done) -> dict[str, bool]:
    """Per metric, whether the printed row claims a gain."""
    return {line.split()[1]: line.endswith("gain")
            for line in done.stdout.splitlines()
            if line.startswith("exp-all ")}


def test_two_winning_pairs_are_not_a_gain(tmp_path):
    parent = write_sets(tmp_path / "p.json", [run(1, 0.13), run(2, 0.12)])
    change = write_sets(tmp_path / "c.json", [run(1, 0.07), run(2, 0.06)])
    done, out = trajectory(tmp_path, parent, change)
    assert done.returncode == 0, done.stderr
    (record,) = [r for r in json.loads(out.read_text())["entries"][0]
                 ["records"] if r["metric"] == "latency_p50_s"]
    assert (record["pairs"], record["wins"]) == (2, 2)
    assert gain_lines(done) == dict.fromkeys(METRICS, False)


def test_nine_wins_in_ten_pairs_with_a_gap_over_the_iqr_are_a_gain(tmp_path):
    # Parent latencies 0.10-0.19 (IQR 0.045); the change loses pair 0 and
    # wins the other nine, its median 0.07 lower than the parent's.
    parent_runs = [run(s, 0.10 + 0.01 * s) for s in range(10)]
    change_runs = [run(0, 0.2)] + [run(s, 0.07 + 0.001 * s)
                                   for s in range(1, 10)]
    done, out = trajectory(tmp_path, write_sets(tmp_path / "p.json",
                                                parent_runs),
                           write_sets(tmp_path / "c.json", change_runs))
    assert done.returncode == 0, done.stderr
    (record,) = [r for r in json.loads(out.read_text())["entries"][0]
                 ["records"] if r["metric"] == "latency_p50_s"]
    assert (record["pairs"], record["wins"]) == (10, 9)
    assert record["parent_median"] - record["change_median"] \
        > record["parent_iqr"]
    assert gain_lines(done) == {"setup_s": False, "sim_kips": False,
                                "latency_p50_s": True, "peak_rss_mb": False}
