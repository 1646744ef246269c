"""Tests for :mod:`repro.obs`, the one metrics registry.

A fleet reads its percentiles from merged snapshots, so merging must be
exact: any split of one observation stream over several registries
merges to the buckets one registry fed the whole stream holds.  A
quantile reads a bucket's upper bound, so it never under-reads and
over-reads by less than 19%; a snapshot's size is fixed by the bucket
layout; and concurrent writers lose nothing.
"""

from __future__ import annotations

import json
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import BUCKET_BOUNDS, Metrics, histogram, merge, quantile

#: Latencies between 1 µs and ~100 s, the range the buckets resolve.
latencies = st.floats(min_value=1e-6, max_value=100.0, allow_nan=False)


def fed(values) -> Metrics:
    metrics = Metrics()
    for value in values:
        metrics.observe("t", value)
        metrics.add("n")
    return metrics


@given(
    st.lists(latencies, min_size=1, max_size=200),
    st.lists(st.integers(0, 3), min_size=1, max_size=200),
)
@settings(max_examples=100, deadline=None)
def test_merge_of_any_split_equals_one_registry(values, owners):
    parts = [Metrics() for _ in range(4)]
    for index, value in enumerate(values):
        part = parts[owners[index % len(owners)]]
        part.observe("t", value)
        part.add("n")
    merged = merge(part.snapshot() for part in parts)
    whole = fed(values).snapshot()
    assert merged["counters"] == whole["counters"]
    series, expected = merged["histograms"]["t"], whole["histograms"]["t"]
    assert series["buckets"] == expected["buckets"]
    assert (series["count"], series["max"]) == (expected["count"], expected["max"])
    assert series["sum"] == pytest.approx(expected["sum"])
    for q in (0.5, 0.99):
        assert quantile(series, q) == quantile(expected, q)


@given(st.lists(latencies, min_size=1, max_size=300), st.floats(0.0, 1.0))
@settings(max_examples=200, deadline=None)
def test_quantile_bounds_the_exact_nearest_rank_value(values, q):
    exact = sorted(values)[int(round(q * (len(values) - 1)))]
    read = quantile(fed(values).snapshot()["histograms"]["t"], q)
    assert exact <= read < 1.19 * exact


def test_snapshot_size_does_not_grow_with_observations():
    small, large = fed([0.001]), fed([0.001 * (i % 97 + 1) for i in range(20000)])
    for metrics in (small, large):
        series = metrics.snapshot()["histograms"]["t"]
        assert len(series["buckets"]) == len(BUCKET_BOUNDS) + 1
    # Same entries, same list lengths: only the numbers differ.
    entries = [json.dumps(m.snapshot()).count(",") for m in (small, large)]
    assert entries[0] == entries[1]


def test_counters_and_counts_are_exact_under_four_writers():
    metrics = Metrics()
    start = threading.Barrier(4)

    def writer(index: int) -> None:
        start.wait()
        for step in range(5000):
            metrics.add("hits")
            metrics.add("bytes", index)
            metrics.observe("t", 1e-5 * (step % 50 + 1))

    threads = [threading.Thread(target=writer, args=(i,)) for i in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    snapshot = metrics.snapshot()
    assert snapshot["counters"] == {"hits": 20000, "bytes": 5000 * (0 + 1 + 2 + 3)}
    series = snapshot["histograms"]["t"]
    assert series["count"] == sum(series["buckets"]) == 20000


def test_empty_and_out_of_range_reads():
    assert quantile(histogram(Metrics().snapshot(), "t"), 0.5) == 0.0
    overflow = fed([1000.0]).snapshot()["histograms"]["t"]
    assert overflow["buckets"][-1] == 1
    assert quantile(overflow, 0.5) == 1000.0
    with pytest.raises(ValueError):
        Metrics().observe("t", -1.0)
    assert json.loads(json.dumps(fed([0.5]).snapshot()))["counters"] == {"n": 1}
