"""Tests for the repro-sim single-run CLI."""

import json

import pytest

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
    assert main(["kmeans", "--policy", "static"]) == 2
    assert "static:N" in capsys.readouterr().err


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
    assert main(["kmeans", "--config", "pascal"]) == 2


def test_unknown_policy_errors(capsys):
    assert main(["kmeans", "--policy", "magic"]) == 2


def test_unknown_kernel_errors(capsys):
    assert main(["nonesuch"]) == 2


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
    assert main([str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert f"{path}: warp 0/0:" in err


def test_engine_timeout_is_typed_error(capsys):
    assert main(["kmeans", "--scale", "0.05", "--no-cache",
                 "--timeout", "0"]) == 1
    assert "SimulationTimeout" in capsys.readouterr().err


def test_live_path_timeout_is_typed_error(capsys):
    assert main(["kmeans", "--scale", "0.05", "--timeline", "500",
                 "--timeout", "0"]) == 1
    assert "timed out" in capsys.readouterr().err


def test_env_fault_injection_fails_run(monkeypatch, capsys):
    monkeypatch.setenv("REPRO_FAULTS", "fail:0")
    assert main(["kmeans", "--scale", "0.05", "--no-cache"]) == 1
    err = capsys.readouterr().err
    assert "InjectedFault" in err


def test_env_fault_bad_spec_is_usage_error(monkeypatch, capsys):
    monkeypatch.setenv("REPRO_FAULTS", "explode:0")
    assert main(["kmeans", "--scale", "0.05", "--no-cache"]) == 2
    assert "bad fault spec" in capsys.readouterr().err


# --------------------------------------------------------------------------- #
# live path vs engine path
# --------------------------------------------------------------------------- #

POLICY_SPECS = ["rr", "static:2", "lcs", "bcs:2", "lcs+bcs:2", "dyncta"]
#: One warp spec per construction branch: a heap scheduler by name, the
#: two-level scheduler by name, and the ``swl:K`` factory.
WARP_SPECS = ["lrr", "two-level", "swl:4"]


def _engine_and_live(tmp_path, capsys, argv):
    """Stdout of the engine path and of the live path (forced by
    ``--trace``) for the same arguments."""
    assert main(argv + ["--no-cache"]) == 0
    engine = capsys.readouterr().out
    trace = tmp_path / "trace.jsonl"
    assert main(argv + ["--trace", str(trace)]) == 0
    live = capsys.readouterr().out
    return engine, live, trace


@pytest.mark.parametrize("warp", WARP_SPECS)
@pytest.mark.parametrize("policy", POLICY_SPECS)
def test_live_path_prints_engine_summary(tmp_path, capsys, policy, warp):
    engine, live, trace = _engine_and_live(
        tmp_path, capsys, ["kmeans", "--scale", "0.03", "--config", "small",
                           "--policy", policy, "--warp", warp])
    summary, _, tail = live.rpartition("trace: ")
    assert summary == engine
    assert tail.endswith(f"-> {trace}\n")


@pytest.mark.parametrize("policy", ["rr", "lcs"])
def test_live_path_prints_engine_summary_vector(tmp_path, capsys, policy):
    engine, live, _ = _engine_and_live(
        tmp_path, capsys, ["kmeans", "--scale", "0.03", "--config", "small",
                           "--policy", policy, "--backend", "vector"])
    assert live.rpartition("trace: ")[0] == engine
