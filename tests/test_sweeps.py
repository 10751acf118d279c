"""Config sweeps are designs: one ``GPUConfig`` field crossed with the
policies through a derived ``config`` factor (the ``mshr-sweep`` of
docs/DESIGNS.md, E20's declaration), run through the
:class:`ExperimentContext`.  Bad descriptors are refused when the
design compiles, before anything runs."""

import pytest

from repro.design import Design, DesignEnv, DesignError, Factor
from repro.harness.experiments import ExperimentContext
from repro.harness.jobs import JobError
from repro.sim.config import GPUConfig

SMALL = GPUConfig.small()


def _sweep(field, values, policies=(("rr",),), *, bench="kmeans",
           warp="gto"):
    """Value outer, policy inner: one row per value, one column per
    policy."""
    return Design(f"sweep-{bench}-{field}", factors=[
        Factor.crossed("value", tuple(values)),
        Factor.crossed("bench", (bench,)),
        Factor.crossed("warp", (warp,)),
        Factor.crossed("policy", tuple(policies)),
        Factor.derived("config", lambda cell, env: {field: cell["value"]}),
    ])


def _compile(design):
    return design.compile(DesignEnv(scale=0.03, config=SMALL))


class TestConfigSweep:
    def test_rows_per_value(self):
        cells = _compile(_sweep("l1_size", [4096, 8192]))
        assert [cc.job.config for cc in cells] \
            == [SMALL.with_overrides(l1_size=size) for size in (4096, 8192)]

    def test_larger_l1_does_not_hurt(self):
        ctx = ExperimentContext(scale=0.05)
        small_ipc, big_ipc = (
            ctx.run("kmeans", config=SMALL.with_overrides(l1_size=size)).ipc
            for size in (4096, 16384))
        assert big_ipc >= small_ipc * 0.98

    def test_repeated_value_reads_its_one_cell(self):
        # The design keeps one cell per distinct (value, policy), and the
        # context hands a repeated cell the same job, run once.
        assert len(_compile(_sweep("l1_mshr_entries", [8, 8]))) == 1
        ctx = ExperimentContext(scale=0.05)
        config = SMALL.with_overrides(l1_mshr_entries=8)
        assert ctx.job("kmeans", config=config) \
            is ctx.job("kmeans", config=config)

    def test_repeated_policy_reads_its_one_cell(self):
        cells = _compile(_sweep("l1_mshr_entries", [8, 16],
                                policies=(("rr",), ("rr",))))
        assert [cc.job.config.l1_mshr_entries for cc in cells] == [8, 16]

    def test_unknown_field_rejected(self):
        with pytest.raises((TypeError, ValueError), match="warp_drive"):
            _compile(_sweep("warp_drive", [1]))

    def test_empty_values_rejected(self):
        with pytest.raises(DesignError, match="at least one level"):
            _sweep("l1_size", [])

    def test_unknown_policy_rejected(self):
        with pytest.raises(JobError, match="bcs"):
            _compile(_sweep("l1_size", [4096], policies=(("bcs", 2),)))

    def test_unknown_warp_scheduler_rejected(self):
        with pytest.raises(JobError, match="gtoo"):
            _compile(_sweep("l1_size", [4096], warp="gtoo"))

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(JobError, match="warp_drive"):
            _compile(_sweep("l1_size", [4096], bench="warp_drive"))
