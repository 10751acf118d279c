"""Tests for the repro-sim single-run CLI."""

import json

import pytest

from helpers import usage_error
from repro.harness import simcli
from repro.harness.simcli import main
from repro.workloads.suite import make_kernel
from repro.workloads.tracefile import save_kernel_trace


def test_basic_run(capsys):
    assert main(["kmeans", "--scale", "0.05"]) == 0
    out = capsys.readouterr().out
    assert "IPC" in out
    assert "warp-time breakdown" in out


def test_lcs_policy_prints_decision(capsys):
    assert main(["kmeans", "--scale", "0.05", "--policy", "lcs"]) == 0
    assert "LCS decision" in capsys.readouterr().out


def test_static_policy(capsys):
    assert main(["kmeans", "--scale", "0.05", "--policy", "static:2"]) == 0


def test_static_without_limit_errors(capsys):
    assert "static:N" in usage_error(main, ["kmeans", "--policy", "static"],
                                     capsys)


def test_bcs_policy_with_baws(capsys):
    assert main(["stencil", "--scale", "0.05", "--warp", "baws",
                 "--policy", "bcs:2"]) == 0


def test_dyncta_policy_prints_quotas(capsys):
    assert main(["kmeans", "--scale", "0.05", "--policy", "dyncta"]) == 0
    assert "DynCTA final quotas" in capsys.readouterr().out


def test_swl_warp_scheduler(capsys):
    assert main(["kmeans", "--scale", "0.05", "--warp", "swl:4"]) == 0


def test_kepler_config(capsys):
    assert main(["compute", "--scale", "0.05", "--config", "kepler"]) == 0


def test_unknown_config_errors(capsys):
    usage_error(main, ["kmeans", "--config", "pascal"], capsys)


def test_unknown_policy_errors(capsys):
    usage_error(main, ["kmeans", "--policy", "magic"], capsys)


def test_unknown_kernel_errors(capsys):
    usage_error(main, ["nonesuch"], capsys)


@pytest.mark.parametrize("argv, message", [
    (["--policy", "static:0"], "CTA limit for 'kmeans' must be >= 1"),
    (["--policy", "bcs:0"], "block_size must be >= 1"),
    (["--warp", "swl:0"], "warp_limit must be >= 1"),
    (["--warp", "swl:0", "--timeline", "500"], "warp_limit must be >= 1"),
    (["--seed", "-1"], "seed must be >= 0, got -1"),
])
def test_unrunnable_job_is_a_usage_error(capsys, argv, message):
    # Each has a valid shape and used to fail only inside the worker,
    # printing its traceback.
    err = usage_error(main, ["kmeans", "--scale", "0.05", "--no-cache",
                             *argv], capsys)
    assert "repro-sim: error: " in err and message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, message", [
    (["--timeline", "0"], "--timeline window must be >= 1 cycle"),
    (["--timeline", "-", "--timeline-period", "0"],
     "--timeline-period must be >= 1 cycle"),
    (["--timeout", "-1"], "--timeout must be >= 0, got -1.0"),
])
def test_out_of_range_flag_is_a_usage_error(capsys, argv, message):
    assert message in usage_error(
        main, ["kmeans", "--scale", "0.05", "--no-cache", *argv], capsys)


@pytest.mark.parametrize("argv, message", [
    (["--scale", "0"], "--scale must be > 0, got 0.0"),
    (["--seed", "-1"], "--seed must be >= 0, got -1"),
    (["--retries", "-3"], "--retries must be >= 0, got -3"),
    (["--timeout", "-1"], "--timeout must be >= 0, got -1.0"),
    (["--checkpoint-interval", "0"],
     "--checkpoint-interval must be >= 1 cycle, got 0"),
    (["--timeline-period", "0"], "--timeline-period must be >= 1 cycle"),
    (["--timeline", "0"], "--timeline window must be >= 1 cycle, got 0"),
    (["--faults", "garbage"], "argument --faults: bad fault spec"),
    (["--trace", "t.json", "--faults", "garbage",
      "--checkpoint-interval", "0"], "bad fault spec"),
])
def test_every_ranged_option_is_refused_before_the_header(capsys, argv,
                                                          message):
    # --retries -3 used to be clamped to 0, and --faults garbage to be
    # refused only after the kernel header was printed (or, with
    # --trace, not at all).
    assert message in usage_error(main, ["kmeans", "--scale", "0.05",
                                         *argv], capsys)


@pytest.mark.parametrize("argv", [
    ["--faults", "fail:0"], ["--retries", "2"],
    ["--checkpoint-interval", "500"],
])
def test_trace_file_refuses_engine_options(tmp_path, capsys, argv):
    path = tmp_path / "k.json"
    save_kernel_trace(make_kernel("kmeans", scale=0.02), path)
    assert "a trace-file run takes no --faults, --retries or " \
        "--checkpoint-interval" in usage_error(main, [str(path), *argv],
                                               capsys)


def test_timeline_output(tmp_path, capsys):
    csv = tmp_path / "timeline.csv"
    assert main(["kmeans", "--scale", "0.05", "--timeline", str(csv),
                 "--timeline-period", "200"]) == 0
    lines = csv.read_text().splitlines()
    header = lines[0].split(",")
    assert header[0] == "cycle"
    assert {"ipc", "resident_ctas", "l1_miss_rate",
            "dram_bus_util"} <= set(header)
    assert len(lines) > 1


def test_timeline_window_to_stdout(capsys):
    assert main(["kmeans", "--scale", "0.05", "--timeline", "500"]) == 0
    out = capsys.readouterr().out
    assert "cycle,ipc" in out
    assert "timeline (" in out


def test_trace_output_chrome_and_jsonl(tmp_path, capsys):
    chrome = tmp_path / "trace.json"
    assert main(["kmeans", "--scale", "0.05", "--policy", "lcs",
                 "--trace", str(chrome)]) == 0
    doc = json.loads(chrome.read_text())
    assert any(e.get("ph") == "X" for e in doc["traceEvents"])
    assert any(e["name"] == "lcs.decision" for e in doc["traceEvents"])

    jsonl = tmp_path / "trace.jsonl"
    assert main(["kmeans", "--scale", "0.05", "--trace", str(jsonl)]) == 0
    records = [json.loads(line)
               for line in jsonl.read_text().splitlines()]
    assert records[0]["kind"] == "run.start"
    assert records[-1]["kind"] == "run.end"


def test_trace_file_input(tmp_path, capsys):
    path = tmp_path / "k.json"
    save_kernel_trace(make_kernel("kmeans", scale=0.02), path)
    assert main([str(path), "--policy", "lcs"]) == 0
    assert "kmeans" in capsys.readouterr().out


def test_malformed_trace_file_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    save_kernel_trace(make_kernel("kmeans", scale=0.02), path)
    document = json.loads(path.read_text())
    document["warps"]["0/0"][0] = ["alu"]
    path.write_text(json.dumps(document))
    err = usage_error(main, [str(path)], capsys)
    assert "repro-sim: error: " in err
    assert f"{path}: warp 0/0:" in err


def test_engine_timeout_is_typed_error(capsys):
    assert main(["kmeans", "--scale", "0.05", "--no-cache",
                 "--timeout", "0"]) == 1
    assert "SimulationTimeout" in capsys.readouterr().err


def test_live_path_timeout_is_typed_error(tmp_path, capsys):
    # A telemetry run of a suite kernel is an engine job like any other;
    # only a trace file still runs in-process.
    assert main(["kmeans", "--scale", "0.05", "--no-cache", "--timeline",
                 "500", "--timeout", "0"]) == 1
    assert "SimulationTimeout" in capsys.readouterr().err
    path = tmp_path / "k.json"
    save_kernel_trace(make_kernel("kmeans", scale=0.02), path)
    assert main([str(path), "--timeline", "500", "--timeout", "0"]) == 1
    assert "timed out" in capsys.readouterr().err


def test_env_fault_injection_fails_run(monkeypatch, capsys):
    monkeypatch.setenv("REPRO_FAULTS", "fail:0")
    assert main(["kmeans", "--scale", "0.05", "--no-cache"]) == 1
    err = capsys.readouterr().err
    assert "InjectedFault" in err


def test_env_fault_bad_spec_is_usage_error(monkeypatch, capsys):
    monkeypatch.setenv("REPRO_FAULTS", "explode:0")
    assert "bad fault spec" in usage_error(
        main, ["kmeans", "--scale", "0.05", "--no-cache"], capsys)


def test_injected_fault_fails_a_traced_run_too(tmp_path, capsys):
    assert main(["kmeans", "--scale", "0.05", "--no-cache", "--faults",
                 "fail:0", "--trace", str(tmp_path / "t.json")]) == 1
    assert "InjectedFault" in capsys.readouterr().err
    assert not (tmp_path / "t.json").exists()


@pytest.mark.parametrize("argv, files", [
    (["--timeline", "F.csv", "--timeline-period", "200"], ["F.csv"]),
    (["--timeline", "500"], []),
    (["--trace", "F.json"], ["F.json"]),
    (["--trace", "F.jsonl"], ["F.jsonl"]),
])
def test_telemetry_runs_go_through_the_engine_and_replay_from_cache(
        tmp_path, monkeypatch, capsys, argv, files):
    def no_live_run(*args, **kwargs):
        raise AssertionError("a suite kernel ran outside the engine")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(simcli, "simulate", no_live_run)
    argv = ["kmeans", "--scale", "0.05", "--policy", "lcs", *argv]
    outputs = []
    for extra, state in ((["--no-cache"], None), ([], "miss"), ([], "hit")):
        assert main(argv + extra) == 0
        captured = capsys.readouterr()
        outputs.append((captured.out,
                        [(tmp_path / name).read_bytes() for name in files]))
        if state:
            assert f"[cache {state}: " in captured.err
    assert outputs[0] == outputs[1] == outputs[2]


# --------------------------------------------------------------------------- #
# a telemetry run (--trace) prints what a plain run prints
# --------------------------------------------------------------------------- #

POLICY_SPECS = ["rr", "static:2", "lcs", "bcs:2", "lcs+bcs:2", "dyncta"]
#: One warp spec per construction branch: a heap scheduler by name, the
#: two-level scheduler by name, and the ``swl:K`` factory.
WARP_SPECS = ["lrr", "two-level", "swl:4"]


@pytest.mark.parametrize("warp", WARP_SPECS)
@pytest.mark.parametrize("policy", POLICY_SPECS)
def test_live_path_prints_engine_summary(tmp_path, capsys, policy, warp):
    argv = ["kmeans", "--scale", "0.03", "--config", "small",
            "--policy", policy, "--warp", warp]
    assert main(argv + ["--no-cache"]) == 0
    engine = capsys.readouterr().out
    trace = tmp_path / "trace.jsonl"
    assert main(argv + ["--trace", str(trace)]) == 0
    summary, _, tail = capsys.readouterr().out.rpartition("trace: ")
    assert summary == engine
    assert tail.endswith(f"-> {trace}\n")
