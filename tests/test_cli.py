"""Tests for the repro-exp command-line interface."""

import pytest

from helpers import usage_error
from repro.harness.cli import main


def test_unknown_experiment_returns_error(capsys):
    assert "unknown experiment" in usage_error(main, ["e99"], capsys)


def test_single_experiment_prints_table(capsys):
    assert main(["e5", "--scale", "0.02"]) == 0
    out = capsys.readouterr().out
    assert "E5" in out
    assert "GMEAN" in out


def test_csv_mode(capsys):
    assert main(["e5", "--scale", "0.02", "--csv"]) == 0
    out = capsys.readouterr().out
    assert "benchmark,lrr_ipc,gto_ipc,twolevel_ipc" in out


def test_e12_prints_two_tables(capsys):
    assert main(["e12", "--scale", "0.02"]) == 0
    out = capsys.readouterr().out
    assert "E12a" in out
    assert "E12b" in out


def test_multiple_experiments_share_context(capsys):
    assert main(["e5", "e12", "--scale", "0.02"]) == 0
    out = capsys.readouterr().out
    assert "E5" in out and "E12a" in out


def test_seed_flag_accepted(capsys):
    assert main(["e12", "--scale", "0.02", "--seed", "7"]) == 0


def test_list_flag(capsys):
    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    assert "e1" in out and "e19" in out and "e12" in out


def test_no_experiments_errors(capsys):
    assert "no experiments" in usage_error(main, [], capsys)


def test_output_writes_csv_files(tmp_path, capsys):
    assert main(["e12", "--scale", "0.02", "--output", str(tmp_path)]) == 0
    assert (tmp_path / "e12a.csv").exists()
    assert (tmp_path / "e12b.csv").exists()
    assert "parameter" in (tmp_path / "e12a.csv").read_text()


def test_chart_flag(capsys):
    assert main(["e5", "--scale", "0.02", "--chart", "gto_over_lrr"]) == 0
    out = capsys.readouterr().out
    assert "#" in out          # bars rendered
    assert "gto_over_lrr" in out


def test_chart_flag_ignores_missing_column(capsys):
    assert main(["e12", "--scale", "0.02", "--chart", "nonexistent"]) == 0


def test_timeline_and_trace_export(tmp_path, monkeypatch, capsys):
    import json

    monkeypatch.chdir(tmp_path)
    assert main(["e5", "--scale", "0.02", "--timeline", "500",
                 "--output", "out", "--trace", "e5.json"]) == 0
    err = capsys.readouterr().err
    assert "timelines:" in err and "trace:" in err
    csvs = sorted((tmp_path / "out").glob("*.timeline.csv"))
    assert csvs
    header = csvs[0].read_text().splitlines()[0].split(",")
    assert header[0] == "cycle" and "ipc" in header
    doc = json.loads((tmp_path / "e5.json").read_text())
    assert doc["traceEvents"]
    assert len({r["pid"] for r in doc["traceEvents"]}) >= 2


def test_telemetry_exports_runs_on_other_hardware(tmp_path, monkeypatch,
                                                  capsys):
    # E22 runs each benchmark on three configs; two are not the context's.
    # Their runs used to be missing, and the three kmeans.gto.rr runs
    # need distinct file names.
    import json

    monkeypatch.chdir(tmp_path)
    assert main(["e22", "--scale", "0.02", "--timeline", "2000",
                 "--output", "out", "--trace", "e22.json"]) == 0
    stems = {path.name.removesuffix(".timeline.csv")
             for path in (tmp_path / "out").glob("*.timeline.csv")}
    assert len(stems) == 12 and "kmeans.gto.rr" in stems
    assert sum(stem.startswith("kmeans.gto.rr.") for stem in stems) == 2
    doc = json.loads((tmp_path / "e22.json").read_text())
    lanes = {record["args"]["name"] for record in doc["traceEvents"]
             if record["name"] == "process_name"}
    assert stems <= lanes and "12 run(s) merged" in capsys.readouterr().err


def test_telemetry_names_runs_that_differ_only_in_scale_mults(tmp_path,
                                                             monkeypatch,
                                                             capsys):
    # E14 runs blackscholes alone at multipliers 1.0, 3.0 and 9.0; each
    # run needs its own file and its own trace lane.
    import json

    monkeypatch.chdir(tmp_path)
    assert main(["e14", "--scale", "0.02", "--timeline", "2000",
                 "--output", "out", "--trace", "e14.json"]) == 0
    assert "[timelines: 12 CSV(s)" in capsys.readouterr().err
    stems = {path.name.removesuffix(".timeline.csv")
             for path in (tmp_path / "out").glob("*.timeline.csv")}
    assert len(stems) == 12
    assert {"blackscholes.gto.rr", "blackscholes-x3.gto.rr",
            "blackscholes-x9.gto.rr", "kmeans.gto.rr",
            "spmv+blackscholes-x3.gto.smk"} <= stems
    doc = json.loads((tmp_path / "e14.json").read_text())
    lanes = [record["args"]["name"] for record in doc["traceEvents"]
             if record["name"] == "process_name"
             and record["args"]["name"] in stems]
    assert sorted(lanes) == sorted(stems)


@pytest.mark.parametrize("spec", ["fail:0", "flaky:0"])
def test_a_job_that_failed_in_the_plan_is_not_dispatched_again(capsys,
                                                               spec):
    # The plan's job 0 is E19's first Kepler baseline, which E16 does not
    # read.  Its failure is memoised: listed once, E19 fails, E16 renders,
    # and with --retries 0 a flaky job gets no second attempt.
    assert main(["e19", "e16", "--scale", "0.02", "--no-cache",
                 "--retries", "0", "--faults", spec]) == 1
    captured = capsys.readouterr()
    assert "E16" in captured.out and "E19" not in captured.out
    assert "1 job(s) without a result; FAILED: e19]" in captured.err


def test_bad_fault_spec_is_usage_error(capsys):
    assert "bad fault spec" in usage_error(
        main, ["e5", "--faults", "explode:0"], capsys)


def test_negative_retries_and_timeout_rejected(capsys):
    usage_error(main, ["e5", "--retries", "-1"], capsys)
    usage_error(main, ["e5", "--timeout", "-3"], capsys)


@pytest.mark.parametrize("argv, message", [
    (["--scale", "0"], "--scale must be > 0, got 0.0"),
    (["--seed", "-1"], "--seed must be >= 0, got -1"),
    (["--timeline", "0"], "--timeline must be >= 1 cycle, got 0"),
])
def test_out_of_range_run_flags_rejected(capsys, argv, message):
    # Each used to dispatch a batch of jobs doomed to fail in a worker.
    assert message in usage_error(
        main, ["e5", "--scale", "0.02", "--no-cache", *argv], capsys)


@pytest.fixture
def cache_entry(tmp_path, monkeypatch):
    """A result-cache entry in a fresh working directory."""
    monkeypatch.chdir(tmp_path)
    entry = tmp_path / ".repro-cache" / "abcdef.json"
    entry.parent.mkdir()
    entry.write_text("{}")
    return entry


@pytest.mark.parametrize("argv, message", [
    (["--jobs", "-1"], "--jobs must be >= 0, got -1"),
    (["-j", "-1"], "-j must be >= 0, got -1"),
    (["--retries", "-1"], "--retries must be >= 0, got -1"),
    (["--timeout", "-3"], "--timeout must be >= 0, got -3.0"),
    (["--max-retries", "-1"], "--max-retries must be >= 0, got -1"),
    (["--lease-ttl", "0"], "--lease-ttl must be > 0, got 0.0"),
    (["--scale", "0"], "--scale must be > 0, got 0.0"),
    (["--scale", "-1"], "--scale must be > 0, got -1.0"),
    (["--scale", "nan"], "--scale must be > 0, got nan"),
    (["--seed", "-1"], "--seed must be >= 0, got -1"),
    (["--timeline", "0"], "--timeline must be >= 1 cycle, got 0"),
    (["--checkpoint-interval", "0"],
     "--checkpoint-interval must be >= 1 cycle, got 0"),
    (["--jobs", "two"], "argument --jobs/-j: invalid int value: 'two'"),
])
def test_every_ranged_option_is_refused_before_anything_runs(
        cache_entry, capsys, argv, message):
    # --clean-state used to purge the cache before the checks ran, and
    # --list used to compile every design first.
    for extra in (["e5"], ["--clean-state", "e3"], ["--clear-cache"],
                  ["--list"]):
        assert message in usage_error(main, [*extra, *argv], capsys)
    assert cache_entry.exists()


@pytest.mark.parametrize("argv, message", [
    (["e5", "--design", "x.toml"], "pass either experiment ids or --design"),
    (["--clean-state", "e99"], "unknown experiment ids: ['e99']"),
    (["--clear-cache", "--shard"], "apply to campaigns; pass --design"),
    (["--list", "--worker-id", "w"], "apply to campaigns; pass --design"),
    (["--clean-state", "e3", "--backend", "vector",
      "--checkpoint-interval", "5"],
     "the vector backend does not support checkpoint/resume"),
])
def test_cross_option_refusals_come_before_any_state_is_touched(
        cache_entry, capsys, argv, message):
    assert message in usage_error(main, argv, capsys)
    assert cache_entry.exists()


def test_bad_env_fault_spec_is_a_usage_error(monkeypatch, capsys):
    monkeypatch.setenv("REPRO_FAULTS", "explode:0")
    assert "bad fault spec in $REPRO_FAULTS" in usage_error(
        main, ["e5"], capsys)


def test_injected_failure_reports_and_exits_nonzero(capsys):
    assert main(["e5", "--scale", "0.02", "--no-cache", "--retries", "0",
                 "--faults", "flaky:0"]) == 1
    captured = capsys.readouterr()
    assert "FAILED" in captured.err
    assert "Failure summary" in captured.out
    assert "InjectedTransientFault" in captured.out


def test_keep_going_yields_partial_results_after_failure(capsys):
    # flaky:0 fires exactly once (during e5), so e12 still completes:
    # the run reports e5's failure but ships e12's tables and exits 1.
    assert main(["e5", "e12", "--scale", "0.02", "--no-cache",
                 "--retries", "0", "--faults", "flaky:0"]) == 1
    captured = capsys.readouterr()
    assert "E12a" in captured.out and "E12b" in captured.out
    assert "FAILED: e5" in captured.err


def test_fail_fast_stops_at_first_failure(capsys):
    assert main(["e5", "e12", "--scale", "0.02", "--no-cache",
                 "--retries", "0", "--fail-fast",
                 "--faults", "flaky:0"]) == 1
    captured = capsys.readouterr()
    assert "E12a" not in captured.out     # never ran


def test_worker_kill_recovered_by_retry(capsys):
    assert main(["e5", "--scale", "0.02", "--no-cache", "--jobs", "2",
                 "--faults", "kill:0"]) == 0
    captured = capsys.readouterr()
    assert "E5" in captured.out
    assert "recovered by retry" in captured.err


def test_design_campaign_clean_run_exits_zero(tmp_path, monkeypatch,
                                              capsys):
    monkeypatch.chdir(tmp_path)
    design = tmp_path / "sweep.toml"
    design.write_text('[design]\nname = "cli-exit"\n\n'
                      '[[design.factor]]\nname = "bench"\n'
                      'levels = ["kmeans"]\n')
    assert main(["--design", str(design), "--scale", "0.02",
                 "--no-cache"]) == 0
    assert "1 dispatched" in capsys.readouterr().err


def test_design_campaign_exit_codes_partial_then_exhausted(
        tmp_path, monkeypatch, capsys):
    # The documented ladder: 0 all-done, 1 partial, 3 retry budget
    # exhausted.  fail:0 fires on every incarnation, so the first run
    # fails the cell (exit 1) and the second refuses to claim it again
    # (exit 3 with the exhausted footer).
    monkeypatch.chdir(tmp_path)
    design = tmp_path / "sweep.toml"
    design.write_text('[design]\nname = "cli-exhaust"\n\n'
                      '[[design.factor]]\nname = "bench"\n'
                      'levels = ["kmeans", "streaming"]\n')
    args = ["--design", str(design), "--scale", "0.02", "--no-cache",
            "--faults", "fail:0", "--retries", "0", "--max-retries", "1"]
    assert main(args) == 1
    capsys.readouterr()
    assert main(args) == 3
    assert "exhausted (past --max-retries)" in capsys.readouterr().err


def test_design_pins_win_over_flags_in_both_clis(tmp_path, monkeypatch,
                                                 capsys):
    # docs/DESIGNS.md: anything the file pins wins over the CLI flags,
    # in repro-exp --design and repro-submit alike — one design file
    # plus the same flags compiles to the same jobs through both.
    from repro.design import DEFAULT_CAMPAIGN_ROOT, Campaign
    from repro.harness.jobs import SimJob
    from repro.service import client as submit_cli

    monkeypatch.chdir(tmp_path)
    design = tmp_path / "pinned.toml"
    design.write_text('[design]\nname = "pinned"\n\n'
                      '[[design.factor]]\nname = "bench"\n'
                      'levels = ["kmeans"]\n\n'
                      '[design.env]\nscale = 0.02\nseed = 5\n'
                      'backend = "object"\n')
    flags = ["--seed", "9", "--backend", "vector"]
    assert main(["--design", str(design), "--no-cache", *flags]) == 0
    store, = (tmp_path / DEFAULT_CAMPAIGN_ROOT).iterdir()
    campaign = Campaign.load(store)

    submitted = []

    class Recorder:
        def __init__(self, *args, **kwargs):
            pass

        def submit(self, cid, payload, **kwargs):
            submitted.append(SimJob.from_payload(payload))
            return {"ok": True, "state": "queued"}

        def close(self):
            pass

    monkeypatch.setattr(submit_cli, "ServiceClient", Recorder)
    submit_cli.main([str(design), "--no-wait", *flags])
    assert [job.seed for job in submitted] == [5]
    assert [job.fingerprint() for job in submitted] \
        == [cell.fingerprint for cell in campaign.cells]


def test_design_campaign_usage_error_exits_two(tmp_path, monkeypatch,
                                               capsys):
    monkeypatch.chdir(tmp_path)
    assert "cannot read design file" in usage_error(
        main, ["--design", str(tmp_path / "missing.toml")], capsys)
    usage_error(main, ["--shard"], capsys)  # campaign flag without --design
    bad = tmp_path / "bad.toml"
    bad.write_text("[design\n")
    assert f"bad design file {bad}" in usage_error(
        main, ["--clean-state", "--design", str(bad)], capsys)


def test_design_campaign_with_an_unrunnable_cell_exits_two(
        tmp_path, monkeypatch, capsys):
    # ["static", 0] has a valid shape but no worker could run it: the
    # campaign refuses to open, writes no store and dispatches nothing.
    from repro.design import DEFAULT_CAMPAIGN_ROOT

    monkeypatch.chdir(tmp_path)
    design = tmp_path / "sweep.toml"
    design.write_text('[design]\nname = "cli-bad-cell"\n\n'
                      '[[design.factor]]\nname = "bench"\n'
                      'levels = ["kmeans"]\n\n'
                      '[[design.factor]]\nname = "policy"\n'
                      'levels = [["rr"], ["static", 0]]\n')
    err = usage_error(main, ["--design", str(design), "--scale", "0.02",
                             "--no-cache"], capsys)
    assert "cannot open campaign" in err
    assert "CTA limit for 'kmeans' must be >= 1" in err
    assert "dispatched" not in err
    assert not (tmp_path / DEFAULT_CAMPAIGN_ROOT).exists()


def test_design_campaign_degraded_journal_footer(tmp_path, monkeypatch,
                                                 capsys, recwarn):
    # Journal appends failing mid-campaign must still exit 0 and say
    # so in the footer (the snapshot carried the state).
    monkeypatch.chdir(tmp_path)
    design = tmp_path / "sweep.toml"
    design.write_text('[design]\nname = "cli-degraded"\n\n'
                      '[[design.factor]]\nname = "bench"\n'
                      'levels = ["kmeans"]\n')
    assert main(["--design", str(design), "--scale", "0.02",
                 "--no-cache", "--faults", "fail-append:0"]) == 0
    assert ("journal append error(s) (snapshot fallback)"
            in capsys.readouterr().err)
