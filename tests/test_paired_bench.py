"""The summary of ``tests/paired_bench.py``: medians, quartiles, the
change in per cent, wins by each metric's direction, and the quartile
test of a claimed gain."""

from __future__ import annotations

import pytest

from paired_bench import directions, summarize


def _line(**values) -> dict:
    """A result line of ``bench/run.py`` with the metric ``values``."""
    return {"correct": True, "failed": 0, "metrics": {k: {"value": v, "unit": "s"} for k, v in values.items()}}


def test_summary_of_paired_runs():
    better = directions()
    assert better["par2_s"] == "lower" and better["verdict_score"] == "higher"
    parent = [_line(par2_s=v, verdict_score=0.8, seeds=1) for v in (10, 11, 12, 13, 14)]
    change = [_line(par2_s=v, verdict_score=s, seeds=1) for v, s in ((9, 0.8), (12, 0.9), (10, 0.9), (9, 0.7), (10, 0.8))]
    rows = {row["metric"]: row for row in summarize(parent, change, better)}
    # A metric BENCHMARK.json does not name is left out.
    assert rows.keys() == {"par2_s", "verdict_score"}
    par2 = rows["par2_s"]
    assert par2["parent"] == (11, 12, 13)
    assert par2["change"] == (9, 10, 10)
    assert par2["delta_pct"] == pytest.approx(-100 / 6)
    # Lower is better: the second pair, 11 against 12, is a loss.
    assert (par2["wins"], par2["pairs"]) == (4, 5)
    # The gap 2 is not beyond the parent's spread 13 - 11 = 2.
    assert par2["beyond_iqr"] is False
    score = rows["verdict_score"]
    assert score["delta_pct"] == 0.0
    # Higher is better: two pairs gain, one loses, two tie.
    assert score["wins"] == 2 and score["beyond_iqr"] is False
    # Prefixed names of an ``all`` run take the direction of their last part.
    rows = summarize([_line(**{"corpus.par2_s": 2.0})], [_line(**{"corpus.par2_s": 1.0})], better)
    assert rows[0]["wins"] == 1 and rows[0]["beyond_iqr"] is True
    assert rows[0]["parent"] == (2.0, 2.0, 2.0)
