"""Figure 10 — average Heuristic-ReducedOpt execution time per EXPAND.

The paper reports the mean per-EXPAND latency of Heuristic-ReducedOpt for
each query (tens to hundreds of milliseconds on 2008 hardware), dominated
by the exponential Opt-EdgeCut on the ≤10-supernode reduced tree: queries
whose reduced trees hit the N=10 cap run slowest ("vardenafil" in the
paper), and narrow reduced trees run fast even when large.

Shape assertions:
  * every EXPAND completes at interactive speed (well under a second);
  * queries whose expansions build larger reduced trees spend more time
    per EXPAND than those with smaller ones (rank correlation, loose).

The benchmark times a single root EXPAND decision for each of three
representative queries.
"""

from __future__ import annotations

import pytest

from conftest import make_solver, run_heuristic
from repro.core.edgecut import Component


def test_fig10_average_expand_time(prepared_queries, report, benchmark):
    def sweep():
        return {k: run_heuristic(p) for k, p in prepared_queries.items()}

    outcomes = benchmark.pedantic(sweep, rounds=1, iterations=1)
    lines = [
        "",
        "=" * 78,
        "FIGURE 10 — Heuristic-ReducedOpt: average execution time per EXPAND",
        "=" * 78,
        "%-26s %10s %12s %14s" % ("keyword", "expands", "avg ms", "avg |T_R|"),
        "-" * 78,
    ]
    rows = []
    for keyword, outcome in outcomes.items():
        avg_ms = outcome.average_expand_seconds * 1000
        avg_reduced = (
            sum(r.reduced_size for r in outcome.expands) / max(len(outcome.expands), 1)
        )
        rows.append((keyword, len(outcome.expands), avg_ms, avg_reduced))
        lines.append("%-26s %10d %12.2f %14.1f" % (keyword, len(outcome.expands), avg_ms, avg_reduced))
        # Interactive-time requirement from §VIII-B.
        assert avg_ms < 1000.0
    lines.append("-" * 78)
    report("\n".join(lines))


def test_fig10_time_tracks_reduced_tree_size(prepared_queries, benchmark):
    """Larger reduced trees should cost more optimizer time on average."""

    def sweep():
        return [run_heuristic(p) for p in prepared_queries.values()]

    outcomes = benchmark.pedantic(sweep, rounds=1, iterations=1)
    small_times = []
    large_times = []
    for outcome in outcomes:
        for record in outcome.expands:
            if record.reduced_size <= 4:
                small_times.append(record.elapsed_seconds)
            elif record.reduced_size >= 8:
                large_times.append(record.elapsed_seconds)
    if not small_times or not large_times:
        pytest.skip("workload did not produce both small and large reduced trees")
    assert sum(large_times) / len(large_times) > sum(small_times) / len(small_times)


@pytest.mark.parametrize("keyword", ["prothymosin", "vardenafil", "ice nucleation"])
def test_bench_root_expand_decision(benchmark, prepared_queries, keyword):
    """Time one Heuristic-ReducedOpt decision on the full root component."""
    prepared = prepared_queries[keyword]
    component = Component(prepared.tree, prepared.tree.root)

    def decide():
        strategy = make_solver(prepared, "heuristic")
        return strategy.best_cut(component)

    decision = benchmark(decide)
    assert decision.cut
