"""Tests of the benchmark's latency statistics.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from run import KERNEL_REF_MS, class_p50, scaled_ms  # noqa: E402


def test_scaled_ms_uses_the_mean_of_both_kernel_readings() -> None:
    assert scaled_ms(("expand", 0.010, KERNEL_REF_MS, KERNEL_REF_MS)) == pytest.approx(10.0)
    slow = 1.5 * KERNEL_REF_MS
    assert scaled_ms(("expand", 0.015, slow, slow)) == pytest.approx(10.0)
    assert scaled_ms(("expand", 0.010, KERNEL_REF_MS, 3 * KERNEL_REF_MS)) == pytest.approx(5.0)


def test_class_p50_weights_each_class_by_its_plays() -> None:
    # Class "a" has three plays, class "b" one: the median over the four
    # samples is a's level.
    samples = [("a", 10.0), ("a", 11.0), ("a", 12.0), ("b", 40.0)]
    assert class_p50(samples) == pytest.approx(class_p50(samples[:3]))


def test_class_p50_ignores_which_plays_ran_slow() -> None:
    # The same plays in another order give the same value: only the mix of
    # classes and plays matters, never which play of a class was slow.
    fast = [("a", 10.0), ("a", 30.0), ("a", 10.0), ("b", 20.0), ("b", 20.0), ("b", 60.0)]
    other = [fast[1], fast[5], fast[0], fast[3], fast[2], fast[4]]
    assert class_p50(fast) == pytest.approx(class_p50(other))
