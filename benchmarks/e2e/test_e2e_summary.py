"""The percentile rule and ``compare``'s bound and unresolved logic."""

from __future__ import annotations

import statistics

import pytest

from summary import compare, percentile, quartiles, spread, tail_percentile


@pytest.mark.parametrize("count, expected", [
    (10000, 99.9), (9999, 99.0), (1000, 99.0), (300, 95.0), (200, 95.0),
    (199, 90.0), (100, 90.0), (99, 75.0), (40, 75.0), (39, 50.0),
    (20, 50.0), (19, None), (1, None)])
def test_tail_percentile_leaves_ten_samples_beyond(count, expected):
    assert tail_percentile(count) == expected
    if expected is not None:
        assert count * (100 - expected) / 100 >= 10 - 1e-9


def test_percentile_interpolates_between_ranks():
    values = [4.0, 1.0, 3.0, 2.0]
    assert percentile(values, 0) == 1.0
    assert percentile(values, 100) == 4.0
    assert percentile(values, 50) == 2.5
    assert percentile(list(range(101)), 95) == 95


def test_quartiles_follow_statistics_quantiles():
    values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0]
    q1, median, q3 = quartiles(values)
    expected = statistics.quantiles(values, n=4)
    assert (q1, q3) == (expected[0], expected[2])
    assert median == statistics.median(values)
    assert quartiles([7.0]) == (7.0, 7.0, 7.0)
    assert spread([10.0, 10.0, 10.0]) == 0


SPEC = {
    "workloads": [{"name": "w", "why": "test"}],
    "end_to_end": [
        {"name": "t", "unit": "s", "better": "lower", "bound": 0.1},
        {"name": "r", "unit": "1/s", "better": "higher", "bound": 0.1},
    ],
}


def runs(times, rates, failed=0, correct=True):
    return {"runs": {"w": [
        {"correct": correct, "attempted": 10, "failed": failed,
         "metrics": {"t": {"value": t, "unit": "s"},
                     "r": {"value": r, "unit": "1/s"}}}
        for t, r in zip(times, rates)]}}


def verdicts(parent, change):
    rows, problems = compare(parent, change, SPEC)
    return {row.metric: row.verdict for row in rows}, problems


STEADY = ([1.0, 1.01, 0.99, 1.0, 1.02], [100, 101, 99, 100, 98])


def test_within_bound_is_ok_in_both_directions():
    result, problems = verdicts(runs(*STEADY),
                                runs([1.05] * 5, [95] * 5))
    assert result == {"t": "ok", "r": "ok"} and not problems


def test_worse_than_bound_is_a_regression():
    result, problems = verdicts(runs(*STEADY),
                                runs([1.2] * 5, [80] * 5))
    assert result == {"t": "REGRESSION", "r": "REGRESSION"}
    assert len(problems) == 2


def test_wide_parent_spread_is_unresolved_unless_every_run_wins():
    noisy = runs([0.8, 1.0, 1.2, 0.9, 1.1], [80, 100, 120, 90, 110])
    result, problems = verdicts(noisy, runs([1.3] * 5, [70] * 5))
    assert result == {"t": "unresolved", "r": "unresolved"}
    assert not problems
    result, _ = verdicts(noisy, runs([0.5] * 5, [200] * 5))
    assert result == {"t": "better", "r": "better"}


def test_rise_in_failed_operations_or_wrong_output_fails():
    _, problems = verdicts(runs(*STEADY), runs(*STEADY, failed=1))
    assert any("failed_frac rose" in p for p in problems)
    _, problems = verdicts(runs(*STEADY), runs(*STEADY, correct=False))
    assert any("wrong output" in p for p in problems)
    _, problems = verdicts(runs(*STEADY), {"runs": {}})
    assert problems == ["w: no runs on one side"]
