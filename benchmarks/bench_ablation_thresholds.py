"""§IV ablation — the EXPAND-probability thresholds.

BioNav sets the EXPAND probability to 1 above 50 result citations and to 0
below 10, with the normalized-entropy estimate in between.  This bench
sweeps the (upper, lower) pair to show the estimator is robust around the
paper's operating point: navigation still reaches every target at similar
cost, while degenerate settings (everything forced to SHOWRESULTS) shift
the cut structure.
"""

from __future__ import annotations

import pytest

from repro.core.probabilities import ProbabilityModel
from repro.core.simulator import navigate_to_target
from repro.pipeline.registry import default_registry

SWEEP = [
    (50, 10),   # paper default
    (25, 5),
    (100, 20),
    (200, 100),  # expansion almost never certain
    (10, 0),     # expansion almost always certain
]


def navigate_with_thresholds(workload, prepared, upper, lower):
    probs = ProbabilityModel(
        prepared.tree,
        workload.database.store.medline_count,
        upper_threshold=upper,
        lower_threshold=lower,
    )
    strategy = default_registry().create("heuristic", prepared.tree, probs)
    return navigate_to_target(
        prepared.tree, strategy, prepared.target_node, show_results=False
    )


def test_ablation_thresholds(workload, prepared_queries, report, benchmark):
    prepared = prepared_queries["prothymosin"]

    def run_sweep():
        return [
            (upper, lower, navigate_with_thresholds(workload, prepared, upper, lower))
            for upper, lower in SWEEP
        ]

    outcomes = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    lines = [
        "",
        "=" * 72,
        "ABLATION — EXPAND-probability thresholds (prothymosin)",
        "=" * 72,
        "%-20s %12s %12s" % ("(upper, lower)", "nav cost", "expands"),
        "-" * 72,
    ]
    costs = {}
    for upper, lower, outcome in outcomes:
        assert outcome.reached, (upper, lower)
        costs[(upper, lower)] = outcome.navigation_cost
        lines.append(
            "%-20s %12.0f %12d"
            % ("(%d, %d)" % (upper, lower), outcome.navigation_cost, outcome.expand_actions)
        )
    lines.append("-" * 72)
    report("\n".join(lines))
    # Robustness: moderate threshold changes stay within 3x of the default.
    default = costs[(50, 10)]
    assert costs[(25, 5)] <= 3 * default
    assert costs[(100, 20)] <= 3 * default


def test_every_query_reaches_target_at_default_thresholds(
    workload, prepared_queries, benchmark
):
    def sweep():
        return [
            (p.spec.keyword, navigate_with_thresholds(workload, p, 50, 10))
            for p in prepared_queries.values()
        ]

    for keyword, outcome in benchmark.pedantic(sweep, rounds=1, iterations=1):
        assert outcome.reached, keyword


@pytest.mark.parametrize("upper,lower", [(50, 10), (200, 100)])
def test_bench_navigation_by_thresholds(benchmark, workload, prepared_queries, upper, lower):
    prepared = prepared_queries["prothymosin"]
    outcome = benchmark(navigate_with_thresholds, workload, prepared, upper, lower)
    assert outcome.reached
