"""Design layer: factors, compilation, files, campaigns, context dedup."""

import dataclasses
import json

import pytest

from repro.design import (Campaign, Design, DesignEnv, DesignError, Factor,
                          Override, load_design, parse_design,
                          serialize_design)
from repro.harness.cache import ResultCache
from repro.harness.experiments import (EXPERIMENT_DESIGNS, ExperimentContext,
                                       design_cell_counts, plan_experiments)
from repro.harness.faults import FaultPlan
from repro.sim.config import GPUConfig

TINY = 0.02


def _fingerprints(design, env=None):
    return [cc.job.fingerprint() for cc in design.compile(env)]


# --------------------------------------------------------------------------- #
# factors and blocks
# --------------------------------------------------------------------------- #

class TestFactors:
    def test_crossed_factor_needs_levels(self):
        with pytest.raises(DesignError, match="at least one level"):
            Factor.crossed("bench", ())

    def test_unknown_kind_rejected(self):
        with pytest.raises(DesignError, match="unknown factor kind"):
            Factor(name="x", kind="randomized")

    def test_nested_factor_needs_callable(self):
        with pytest.raises(DesignError, match="needs a callable"):
            Factor(name="x", kind="nested")

    def test_levels_are_frozen_to_tuples(self):
        factor = Factor.crossed("policy", [["lcs", "tail", 0.5]])
        assert factor.levels == (("lcs", "tail", 0.5),)

    def test_factorial_product_order(self):
        design = Design("d", factors=[
            Factor.crossed("a", (1, 2)),
            Factor.crossed("b", ("x", "y")),
        ])
        cells = design.cells()
        assert cells == [{"a": 1, "b": "x"}, {"a": 1, "b": "y"},
                         {"a": 2, "b": "x"}, {"a": 2, "b": "y"}]

    def test_nested_factor_sees_earlier_factors_and_env(self):
        design = Design("d", factors=[
            Factor.crossed("bench", ("kmeans",)),
            Factor.nested("limit", lambda cell, env: range(
                1, env.occupancy(cell["bench"]) + 1)),
        ])
        env = DesignEnv(scale=TINY)
        limits = [cell["limit"] for cell in design.cells(env)]
        assert limits == list(range(1, env.occupancy("kmeans") + 1))

    def test_derived_factor_one_value_per_cell(self):
        design = Design("d", factors=[
            Factor.crossed("n", (1, 2)),
            Factor.derived("policy", lambda cell, env: ("static", cell["n"])),
        ])
        assert [c["policy"] for c in design.cells()] == [("static", 1),
                                                         ("static", 2)]

    def test_exclude_and_override(self):
        design = Design("d", factors=[
            Factor.crossed("bench", ("kmeans", "iindex")),
            Factor.crossed("warp", ("gto",)),
        ], exclude=[{"bench": "iindex"}],
           overrides=[Override(match={"bench": "kmeans"},
                               set={"warp": "baws"})])
        cells = design.cells()
        assert cells == [{"bench": "kmeans", "warp": "baws"}]

    def test_where_predicate_filters(self):
        design = Design("d", factors=[Factor.crossed("n", (1, 2, 3, 4))],
                        where=[lambda cell: cell["n"] % 2 == 0])
        assert [c["n"] for c in design.cells()] == [2, 4]


# --------------------------------------------------------------------------- #
# designs and compilation
# --------------------------------------------------------------------------- #

class TestDesignCompile:
    def test_needs_exactly_one_of_factors_or_blocks(self):
        with pytest.raises(DesignError, match="exactly one"):
            Design("d")

    def test_chain_dedups_cells_across_blocks(self):
        base = Design("a", factors=[Factor.crossed("bench", ("kmeans",)),
                                    Factor.crossed("policy", (("rr",),))])
        both = Design.chain("c", base, base)
        assert len(both.cells()) == 1

    def test_sorted_order_is_deterministic_reordering(self):
        design = Design("d", factors=[Factor.crossed("bench",
                                                     ("streaming", "kmeans"))],
                        order="sorted")
        compiled = design.compile(DesignEnv(scale=TINY))
        assert [cc.cell["bench"] for cc in compiled] \
            == ["kmeans", "streaming"]

    def test_compile_requires_bench(self):
        design = Design("d", factors=[Factor.crossed("warp", ("gto",))])
        with pytest.raises(DesignError, match="no 'bench' factor"):
            design.compile(DesignEnv(scale=TINY))

    def test_compile_is_deterministic(self):
        design = EXPERIMENT_DESIGNS["e3"]()
        env = DesignEnv(scale=TINY)
        assert _fingerprints(design, env) == _fingerprints(design, env)

    def test_compile_matches_context_jobs(self):
        # A design cell and the equivalent hand-built ctx.job are the
        # same job: one construction path, one fingerprint universe.
        ctx = ExperimentContext(scale=TINY)
        design = Design("d", factors=[
            Factor.crossed("bench", ("kmeans",)),
            Factor.crossed("warp", ("gto",)),
            Factor.crossed("policy", (("lcs", "tail", 0.5),)),
        ])
        (cc,) = design.compile(ctx.design_env())
        assert cc.job == ctx.job("kmeans", policy=("lcs", "tail", 0.5))

    def test_config_dict_level_overrides_env_config(self):
        design = Design("d", factors=[
            Factor.crossed("bench", ("kmeans",)),
            Factor.crossed("config", ({"l1_mshr_entries": 64},)),
        ])
        (cc,) = design.compile(DesignEnv(scale=TINY))
        assert cc.job.config.l1_mshr_entries == 64

    def test_digest_tracks_meaning(self):
        env = DesignEnv(scale=TINY)
        d1 = Design("d", factors=[Factor.crossed("bench", ("kmeans",))])
        d2 = Design("d", factors=[Factor.crossed("bench", ("kmeans",))])
        d3 = Design("d", factors=[Factor.crossed("bench", ("iindex",))])
        assert d1.digest(env) == d2.digest(env)
        assert d1.digest(env) != d3.digest(env)
        assert d1.digest(env) != d1.digest(DesignEnv(scale=0.04))

    def test_every_experiment_design_compiles(self):
        env = DesignEnv(scale=TINY)
        counts = design_cell_counts(env)
        for exp_id, builder in EXPERIMENT_DESIGNS.items():
            compiled = builder().compile(env)
            assert compiled, exp_id
            assert counts[exp_id] == len(builder().cells(env))
            labels = [cc.label for cc in compiled]
            assert len(set(labels)) == len(labels), f"{exp_id}: dup labels"
        assert counts["e12"] == 0


# --------------------------------------------------------------------------- #
# design files: round trip
# --------------------------------------------------------------------------- #

ROUND_TRIP_DESIGNS = [
    Design("plain", factors=[
        Factor.crossed("bench", ("kmeans", "streaming")),
        Factor.crossed("policy", (("rr",), ("lcs", "tail", 0.5))),
    ]),
    Design("with-none", factors=[
        Factor.crossed("bench", ("kmeans",)),
        Factor.crossed("warp", ("baws",)),
        Factor.crossed("policy", (("bcs", 2, None),)),
    ]),
    Design("filtered", factors=[
        Factor.crossed("bench", ("kmeans", "iindex")),
        Factor.crossed("policy", (("rr",), ("dyncta",))),
    ], exclude=[{"bench": "iindex", "policy": ("dyncta",)}],
       overrides=[Override(match={"bench": "kmeans"},
                           set={"warp": "baws"})]),
    Design.chain(
        "multi-block",
        Design("a", factors=[Factor.crossed("bench", ("kmeans",)),
                             Factor.crossed("policy", (("rr",),))]),
        Design("b", factors=[Factor.crossed("bench", ("streaming",)),
                             Factor.crossed("policy", (("static", 2),))])),
]


class TestDesignFiles:
    @pytest.mark.parametrize("fmt", ["toml", "json"])
    @pytest.mark.parametrize("design", ROUND_TRIP_DESIGNS,
                             ids=lambda d: d.name)
    def test_round_trip_preserves_fingerprints(self, design, fmt):
        env_map = {"scale": TINY, "seed": 7}
        text = serialize_design(design, fmt=fmt, env=env_map)
        parsed, env_overrides = parse_design(text, fmt=fmt)
        assert env_overrides == env_map
        env = DesignEnv(**env_overrides)
        assert _fingerprints(parsed, env) == _fingerprints(design, env)
        assert parsed.digest(env) == design.digest(env)

    def test_load_design_toml_and_json(self, tmp_path):
        design = ROUND_TRIP_DESIGNS[0]
        for fmt in ("toml", "json"):
            path = tmp_path / f"d.{fmt}"
            path.write_text(serialize_design(design, fmt=fmt))
            loaded, _ = load_design(path)
            assert _fingerprints(loaded, DesignEnv(scale=TINY)) \
                == _fingerprints(design, DesignEnv(scale=TINY))

    def test_unrepresentable_design_refuses_serialization(self):
        design = Design("d", factors=[
            Factor.crossed("bench", ("kmeans",)),
            Factor.derived("policy", lambda cell, env: ("rr",)),
        ])
        with pytest.raises(DesignError, match="nested/derived"):
            serialize_design(design)

    def test_unknown_env_key_rejected(self):
        with pytest.raises(DesignError, match="unknown"):
            parse_design('[design]\nname = "d"\n'
                         '[[design.factor]]\nname = "bench"\n'
                         'levels = ["kmeans"]\n'
                         '[design.env]\nwarp = "gto"\n')

    def test_example_design_file_parses(self):
        design, env_overrides = load_design("examples/lcs_threshold.toml")
        assert env_overrides == {"scale": 0.1}
        assert len(design.compile(DesignEnv(**env_overrides))) == 7


# --------------------------------------------------------------------------- #
# campaigns
# --------------------------------------------------------------------------- #

def _tiny_design():
    return Design("camp", factors=[
        Factor.crossed("bench", ("kmeans", "streaming")),
        Factor.crossed("policy", (("rr",),)),
    ])


class TestCampaign:
    def test_run_then_resume_skips_done_cells(self, tmp_path):
        env = DesignEnv(scale=TINY)
        cache = ResultCache(tmp_path / "cache")
        campaign = Campaign.open(_tiny_design(), env, root=tmp_path / "c")
        report = campaign.run(cache=cache)
        assert report.ok and report.executed == 2 and report.resumed == 0
        assert campaign.counts() == {"pending": 0, "claimed": 0, "done": 2,
                                     "failed": 0, "exhausted": 0}

        again = Campaign.open(_tiny_design(), env, root=tmp_path / "c")
        assert again.path == campaign.path
        report = again.run(cache=cache)
        assert report.executed == 0 and report.resumed == 2

    def test_interrupted_campaign_replays_from_cache(self, tmp_path):
        # Simulate a total journal loss: the batch ran (results are in
        # the result cache) but nothing of the durable history survives.
        # The next invocation re-dispatches, and the engine replays every
        # cell from cache.
        env = DesignEnv(scale=TINY)
        cache = ResultCache(tmp_path / "cache")
        first = Campaign.open(_tiny_design(), env, root=tmp_path / "c")
        first.run(cache=cache)
        hits_before = cache.hits

        (first.path / "journal.jsonl").unlink()
        second = Campaign.open(_tiny_design(), env, root=tmp_path / "c")
        assert second.counts()["pending"] == 2
        report = second.run(cache=cache)
        assert report.ok and report.executed == 2
        assert cache.hits == hits_before + 2   # replayed, not re-simulated

    def test_failed_cells_are_retried_on_resume(self, tmp_path):
        env = DesignEnv(scale=TINY)
        campaign = Campaign.open(_tiny_design(), env, root=tmp_path / "c")
        report = campaign.run(faults=FaultPlan.parse("fail:0"), retries=0)
        assert report.failed == 1
        assert campaign.counts()["failed"] == 1

        resumed = Campaign.open(_tiny_design(), env, root=tmp_path / "c")
        report = resumed.run()
        assert report.ok and report.executed == 1 and report.resumed == 1
        assert resumed.counts() == {"pending": 0, "claimed": 0, "done": 2,
                                    "failed": 0, "exhausted": 0}

    def test_changed_design_gets_fresh_manifest(self, tmp_path):
        env = DesignEnv(scale=TINY)
        a = Campaign.open(_tiny_design(), env, root=tmp_path / "c")
        changed = Design("camp", factors=[
            Factor.crossed("bench", ("kmeans",)),
            Factor.crossed("policy", (("rr",),)),
        ])
        b = Campaign.open(changed, env, root=tmp_path / "c")
        assert a.path != b.path

    def test_manifest_round_trips_jobs_exactly(self, tmp_path):
        env = DesignEnv(scale=TINY)
        campaign = Campaign.open(_tiny_design(), env, root=tmp_path / "c")
        loaded = Campaign.load(campaign.path)
        from repro.harness.jobs import SimJob
        for cell in loaded.cells:
            assert SimJob.from_payload(cell.job).fingerprint() \
                == cell.fingerprint

    def test_a_store_whose_env_names_a_core_resumes(self, tmp_path):
        # Manifests written while the environment still chose a simulator
        # core carry "backend" in their env: they load, the key is
        # ignored, and the campaign resumes in the same directory.
        env = DesignEnv(scale=TINY)
        cache = ResultCache(tmp_path / "cache")
        campaign = Campaign.open(_tiny_design(), env, root=tmp_path / "c")
        campaign.run(cache=cache)
        meta = campaign.path / "meta.json"
        data = json.loads(meta.read_text())
        data["env"]["backend"] = "object"
        meta.write_text(json.dumps(data))
        assert DesignEnv.from_payload(data["env"]) == env
        again = Campaign.open(_tiny_design(), env, root=tmp_path / "c")
        assert again.path == campaign.path
        report = again.run(cache=cache)
        assert report.executed == 0 and report.resumed == 2


# --------------------------------------------------------------------------- #
# context integration: one memo across hardware + cross-experiment dedup
# --------------------------------------------------------------------------- #

class TestContextIntegration:
    def test_job_on_other_hardware_carries_every_rider(self):
        # A job on other hardware comes from the context's one environment,
        # so it differs from the same cell on the context's hardware in
        # its config alone: it carries every rider the context sets.
        ctx = ExperimentContext(scale=TINY, seed=3, jobs=2,
                                timeline_window=500, trace=True, retries=5,
                                timeout=12.5, fail_fast=True,
                                sanitize=True)
        kepler = GPUConfig.kepler_class()
        job = ctx.job("kmeans", config=kepler)
        assert job.config == kepler
        assert job == dataclasses.replace(ctx.job("kmeans"), config=kepler)
        assert (job.scale, job.seed, job.timeline_window, job.trace) \
            == (TINY, 3, 500, True)

    def test_run_on_other_hardware_is_one_batch(self):
        ctx = ExperimentContext(scale=TINY)
        kepler = GPUConfig.kepler_class()
        result = ctx.run("kmeans", config=kepler)
        assert ctx.run("kmeans", config=kepler) is result
        assert len(ctx.reports) == 1
        # Naming the context's own hardware is the same cell.
        assert ctx.run("kmeans", config=ctx.config) is ctx.run("kmeans")
        assert len(ctx.reports) == 2

    def test_plan_experiments_dedups_shared_cells(self):
        ctx = ExperimentContext(scale=TINY)
        env = ctx.design_env()
        separate = sum(len(EXPERIMENT_DESIGNS[e]().compile(env))
                       for e in ("e3", "e4", "e9"))
        planned = plan_experiments(ctx, ["e3", "e4", "e9"])
        # E4 shares E3's lcs runs + static sweeps; E9 shares the baseline.
        assert planned < separate
        assert len(ctx._results) == planned
        # Drivers now find everything memoised: no new engine batches.
        batches = len(ctx.reports)
        from repro.harness.experiments import EXPERIMENTS
        EXPERIMENTS["e4"](ctx)
        assert len(ctx.reports) == batches

    def test_cell_counts_are_json_safe(self):
        counts = design_cell_counts(DesignEnv(scale=TINY))
        json.dumps(counts)
        assert counts["e6"] == counts["e7"]   # shared design
