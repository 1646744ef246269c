"""Runtime growth-curve fitting.

The paper claims Opt-EdgeCut is exponential (complexity O(2^|T|)) and
bounds the reduced-tree size accordingly; the benchmarks measure its
runtime over tree sizes.  This module fits the measurements to an
exponential model ``t(n) = a · b^n`` by log-linear least squares (numpy)
and reports the growth base with a goodness-of-fit, turning "it explodes"
into a measured quantity.  (The deployed system's per-EXPAND solver
time is a histogram in :mod:`repro.obs`.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = ["ExponentialFit", "fit_exponential"]


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
