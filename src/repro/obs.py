"""One metrics registry: named counters and log-bucket latency histograms.

Every count the running system keeps — stage-cache hits and builds, L2
publishes, admissions and sheds, session churn, per-EXPAND solver time
(the latency the paper's Figure 10 measures) — is an entry in one
:class:`Metrics` registry.  Each runtime owns one registry and hands it
to the parts it builds; ``/api/stats`` renders a snapshot of it.

A histogram keeps its count, sum, maximum and one count per bucket of a
fixed layout (:data:`BUCKET_BOUNDS`): four buckets per power of two from
1 µs to ~134 s, plus an underflow and an overflow bucket.  Its memory
does not grow with the number of observations.  :func:`quantile` reads
the upper bound of the bucket holding the nearest-rank value, so it
never reads lower than the exact value and over-reads by less than
2^(1/4) ≈ 1.19×.

A snapshot is a plain dict of numbers and lists (picklable, JSON-able).
:func:`merge` adds snapshots counter by counter and bucket by bucket
and takes the largest maximum, so a fleet's quantiles are read from
the same buckets one process fed with the whole stream would hold.
"""

from __future__ import annotations

import bisect
import threading
from typing import Any, Dict, Iterable, List, Mapping

__all__ = [
    "BUCKET_BOUNDS", "Metrics", "Snapshot", "add_up", "histogram", "merge", "quantile",
]

#: Bucket upper bounds in seconds: 2^(i/4) µs for i = 0..108.  Bucket 0
#: holds values up to 1 µs; bucket ``len(BUCKET_BOUNDS)`` holds the
#: overflow past ~134 s.
BUCKET_BOUNDS = tuple(1e-6 * 2.0 ** (i / 4.0) for i in range(27 * 4 + 1))
_BUCKETS = len(BUCKET_BOUNDS) + 1

Snapshot = Dict[str, Dict[str, Any]]


class _Histogram:
    """One latency series (mutated under the owning registry's lock)."""

    __slots__ = ("count", "sum", "max", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.sum = 0.0
        self.max = 0.0
        self.buckets = [0] * _BUCKETS


class Metrics:
    """Thread-safe registry of named counters and latency histograms.

    Every read and write holds ``self._lock``, so counters and
    histogram counts stay exact under concurrent writers, and a
    :meth:`snapshot` is one consistent reading of every entry.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, float] = {}
        self._histograms: Dict[str, _Histogram] = {}

    def add(self, name: str, amount: float = 1) -> None:
        """Add ``amount`` to counter ``name`` (0 lists it at zero)."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + amount

    def observe(self, name: str, seconds: float) -> None:
        """Record one latency observation in histogram ``name``."""
        if seconds < 0:
            raise ValueError("seconds must be non-negative")
        bucket = bisect.bisect_left(BUCKET_BOUNDS, seconds)
        with self._lock:
            series = self._histograms.get(name)
            if series is None:
                series = self._histograms[name] = _Histogram()
            series.count += 1
            series.sum += seconds
            series.max = max(series.max, seconds)
            series.buckets[bucket] += 1

    def snapshot(self) -> Snapshot:
        """``{"counters": {name: n}, "histograms": {name: series}}``.

        A series is ``{"count", "sum", "max", "buckets"}``; its size is
        fixed by the bucket layout.
        """
        with self._lock:
            return {
                "counters": dict(self._counters),
                "histograms": {
                    name: {
                        "count": series.count,
                        "sum": series.sum,
                        "max": series.max,
                        "buckets": list(series.buckets),
                    }
                    for name, series in self._histograms.items()
                },
            }


def add_up(mappings: Iterable[Mapping[str, Any]]) -> Dict[str, float]:
    """Element-wise sum of flat name → number mappings.

    Entries that are not numbers (lists, nested dicts, None) do not add
    up and are left out.
    """
    total: Dict[str, float] = {}
    for mapping in mappings:
        for name, value in mapping.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                total[name] = total.get(name, 0) + value
    return total


def merge(snapshots: Iterable[Snapshot]) -> Snapshot:
    """One snapshot holding every event of ``snapshots``.

    Counters, histogram counts, sums and buckets add; the maximum is
    the largest maximum.
    """
    snapshots = list(snapshots)
    histograms: Dict[str, Dict[str, Any]] = {}
    for snapshot in snapshots:
        for name, series in snapshot["histograms"].items():
            merged = histograms.setdefault(name, _empty_series())
            merged["count"] += series["count"]
            merged["sum"] += series["sum"]
            merged["max"] = max(merged["max"], series["max"])
            merged["buckets"] = [
                a + b for a, b in zip(merged["buckets"], series["buckets"])
            ]
    return {
        "counters": add_up(snapshot["counters"] for snapshot in snapshots),
        "histograms": histograms,
    }


def histogram(snapshot: Snapshot, name: str) -> Dict[str, Any]:
    """Series ``name`` of ``snapshot``, or an empty one."""
    return snapshot["histograms"].get(name) or _empty_series()


def _empty_series() -> Dict[str, Any]:
    return {"count": 0, "sum": 0.0, "max": 0.0, "buckets": [0] * _BUCKETS}


def quantile(series: Mapping[str, Any], q: float) -> float:
    """The ``q``-quantile (0..1) of a series, in seconds (0.0 if empty).

    Reads the upper bound of the bucket holding the nearest-rank value
    (rank ``round(q · (count − 1))``), capped at the series maximum.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError("quantile must be within [0, 1]")
    count = series["count"]
    if not count:
        return 0.0
    rank = int(round(q * (count - 1)))
    seen = 0
    buckets: List[int] = series["buckets"]
    for index, filled in enumerate(buckets):
        seen += filled
        if seen > rank:
            break
    bound = BUCKET_BOUNDS[index] if index < len(BUCKET_BOUNDS) else series["max"]
    return min(bound, series["max"])
