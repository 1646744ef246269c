"""Runtime growth-curve fitting and per-EXPAND solver profiling.

The paper claims Opt-EdgeCut is exponential (complexity O(2^|T|)) and
bounds the reduced-tree size accordingly; the benchmarks measure its
runtime over tree sizes.  This module fits the measurements to an
exponential model ``t(n) = a · b^n`` by log-linear least squares (numpy)
and reports the growth base with a goodness-of-fit, turning "it explodes"
into a measured quantity.

It also provides :class:`SolverProfile`, the lightweight recorder
:class:`~repro.core.session.NavigationSession` feeds with one
:class:`SolverTiming` per EXPAND decision, so deployments can watch the
latency the paper's Figure 10 measures — per-EXPAND optimizer time — in
production rather than only on the bench.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np

__all__ = ["ExponentialFit", "fit_exponential", "SolverTiming", "SolverProfile"]


@dataclass(frozen=True)
class ExponentialFit:
    """Result of fitting ``t(n) = a · b^n``.

    Attributes:
        base: the per-node growth factor ``b`` (exponential iff > 1).
        scale: the leading constant ``a``.
        r_squared: coefficient of determination of the log-space fit.
    """

    base: float
    scale: float
    r_squared: float

    def predict(self, n: float) -> float:
        """Predicted runtime at size ``n``."""
        return self.scale * (self.base ** n)


@dataclass(frozen=True)
class SolverTiming:
    """One EXPAND decision's solver cost.

    Attributes:
        node: the expanded concept (navigation-tree node id).
        seconds: wall-clock time the strategy spent choosing the cut.
        reduced_size: supernode count of the tree the decision ran on
            (the Figure 10 regressor).
    """

    node: int
    seconds: float
    reduced_size: int


@dataclass
class SolverProfile:
    """Accumulates per-EXPAND solver timings across sessions.

    A single profile can be shared by every session of a deployment and
    by every request thread of the serving runtime: ``record``,
    ``len``, :meth:`snapshot` and :meth:`summary` hold the profile's
    lock, so a summary always describes a consistent prefix of the
    recording stream.  ``record`` is append-only, so aggregation never
    perturbs the measured path.
    """

    records: List[SolverTiming] = field(default_factory=list)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, init=False, repr=False, compare=False
    )

    def record(self, node: int, seconds: float, reduced_size: int) -> None:
        """Append one EXPAND decision's timing."""
        if seconds < 0:
            raise ValueError("seconds must be non-negative")
        timing = SolverTiming(node=node, seconds=seconds, reduced_size=reduced_size)
        with self._lock:
            self.records.append(timing)

    def __len__(self) -> int:
        with self._lock:
            return len(self.records)

    def snapshot(self) -> List[SolverTiming]:
        """A point-in-time copy of every recorded timing."""
        with self._lock:
            return list(self.records)

    @property
    def total_seconds(self) -> float:
        """Total solver time recorded."""
        return sum(r.seconds for r in self.snapshot())

    @property
    def mean_seconds(self) -> float:
        """Mean per-EXPAND solver time (0.0 with no records)."""
        records = self.snapshot()
        return sum(r.seconds for r in records) / len(records) if records else 0.0

    def percentile_seconds(self, q: float) -> float:
        """The ``q``-th percentile (0..100) of per-EXPAND solver time."""
        if not 0 <= q <= 100:
            raise ValueError("percentile must be within [0, 100]")
        return _percentile(sorted(r.seconds for r in self.snapshot()), q)

    def summary(self) -> Dict[str, float]:
        """Aggregate statistics, in milliseconds where latency-like.

        Keys: ``expands``, ``total_ms``, ``mean_ms``, ``p50_ms``,
        ``p95_ms``, ``p99_ms``, ``max_ms``, ``mean_reduced_size``.
        ``p99_ms`` is the per-EXPAND latency tail the expand-hot-path
        bench gates sub-millisecond (warm) and ``/api/stats`` surfaces.
        """
        records = self.snapshot()
        if not records:
            return {
                "expands": 0,
                "total_ms": 0.0,
                "mean_ms": 0.0,
                "p50_ms": 0.0,
                "p95_ms": 0.0,
                "p99_ms": 0.0,
                "max_ms": 0.0,
                "mean_reduced_size": 0.0,
            }
        total = sum(r.seconds for r in records)
        ordered = sorted(r.seconds for r in records)
        return {
            "expands": len(records),
            "total_ms": total * 1000.0,
            "mean_ms": total / len(records) * 1000.0,
            "p50_ms": _percentile(ordered, 50) * 1000.0,
            "p95_ms": _percentile(ordered, 95) * 1000.0,
            "p99_ms": _percentile(ordered, 99) * 1000.0,
            "max_ms": ordered[-1] * 1000.0,
            "mean_reduced_size": (
                sum(r.reduced_size for r in records) / len(records)
            ),
        }

    def growth_fit(self) -> "ExponentialFit":
        """Fit solver time against reduced-tree size (see module docstring).

        Raises:
            ValueError: fewer than 3 records or non-positive timings (the
                log-linear fit needs t > 0).
        """
        records = self.snapshot()
        return fit_exponential(
            [float(r.reduced_size) for r in records], [r.seconds for r in records]
        )


def _percentile(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile of an ascending series (0.0 if empty)."""
    if not ordered:
        return 0.0
    return ordered[int(round((q / 100.0) * (len(ordered) - 1)))]


def fit_exponential(
    sizes: Sequence[float], times: Sequence[float]
) -> ExponentialFit:
    """Least-squares fit of an exponential to (size, time) measurements.

    Raises:
        ValueError: fewer than 3 points, mismatched lengths, or
            non-positive times (the log transform needs t > 0).
    """
    if len(sizes) != len(times):
        raise ValueError("sizes and times must pair up")
    if len(sizes) < 3:
        raise ValueError("need at least 3 measurements to fit a curve")
    times_array = np.asarray(times, dtype=float)
    if np.any(times_array <= 0):
        raise ValueError("times must be positive")
    sizes_array = np.asarray(sizes, dtype=float)
    log_times = np.log(times_array)
    slope, intercept = np.polyfit(sizes_array, log_times, 1)
    predicted = slope * sizes_array + intercept
    residual = float(np.sum((log_times - predicted) ** 2))
    total = float(np.sum((log_times - log_times.mean()) ** 2))
    r_squared = 1.0 - residual / total if total > 0 else 1.0
    return ExponentialFit(
        base=float(np.exp(slope)),
        scale=float(np.exp(intercept)),
        r_squared=r_squared,
    )
