"""§IV ablation — what the IDF term in the EXPLORE probability buys.

The paper weights a concept by |L(n)| / log LT(n): concepts that are
ubiquitous across MEDLINE (high LT) are discounted as undiscriminating
"inspired by the inverse document frequency measure in Information
Retrieval".  This ablation re-runs the Fig. 8 comparison with the IDF
denominator removed (pE ∝ |L(n)| alone) and reports the cost difference —
quantifying a design choice the paper motivates but never measures.
"""

from __future__ import annotations

import pytest

from repro.core.probabilities import ProbabilityModel
from repro.core.simulator import navigate_to_target
from repro.pipeline.registry import default_registry


def navigate(workload, prepared, use_idf: bool):
    probs = ProbabilityModel(
        prepared.tree, workload.database.store.medline_count, use_idf=use_idf
    )
    strategy = default_registry().create("heuristic", prepared.tree, probs)
    return navigate_to_target(
        prepared.tree, strategy, prepared.target_node, show_results=False
    )


def test_ablation_explore_idf(workload, prepared_queries, report, benchmark):
    def sweep():
        return {
            keyword: (navigate(workload, p, True), navigate(workload, p, False))
            for keyword, p in prepared_queries.items()
        }

    outcomes = benchmark.pedantic(sweep, rounds=1, iterations=1)
    lines = [
        "",
        "=" * 76,
        "ABLATION — EXPLORE probability with vs without the IDF discount",
        "=" * 76,
        "%-26s %12s %14s" % ("keyword", "with IDF", "without IDF"),
        "-" * 76,
    ]
    with_total = 0.0
    without_total = 0.0
    for keyword, (with_idf, without_idf) in outcomes.items():
        assert with_idf.reached and without_idf.reached
        lines.append(
            "%-26s %12.0f %14.0f"
            % (keyword, with_idf.navigation_cost, without_idf.navigation_cost)
        )
        with_total += with_idf.navigation_cost
        without_total += without_idf.navigation_cost
    lines.append("-" * 76)
    lines.append(
        "totals: with IDF %.0f, without %.0f (ratio %.2f)"
        % (with_total, without_total, with_total / max(without_total, 1))
    )
    report("\n".join(lines))
    # Both variants navigate successfully; the IDF variant must not be
    # substantially worse overall (it is the paper's recommended form).
    assert with_total <= 1.5 * without_total


@pytest.mark.parametrize("use_idf", [True, False])
def test_bench_navigation_by_probability_variant(
    benchmark, workload, prepared_queries, use_idf
):
    prepared = prepared_queries["prothymosin"]
    outcome = benchmark.pedantic(
        navigate, args=(workload, prepared, use_idf), rounds=2, iterations=1
    )
    assert outcome.reached
