"""Unit tests for the model-expected strategy cost evaluator."""

from __future__ import annotations

import pytest

from repro.core.edgecut import Component
from repro.core.evaluation import expected_strategy_cost
from repro.core.heuristic import HeuristicReducedOpt
from repro.core.opt_edgecut import CutTree, OptEdgeCut
from repro.core.paged_static import PagedStaticNavigation
from repro.core.probabilities import ProbabilityModel
from repro.core.static_nav import StaticNavigation
from repro.hierarchy.concept import ConceptHierarchy
from tests.oracles.member_sets import tree_from_mapping


def flat_counts(node: int) -> int:
    return 500


@pytest.fixture()
def small_tree():
    h = ConceptHierarchy.from_parents([-1, 0, 1, 1, 0], ["root", "a", "b", "c", "d"])
    return tree_from_mapping(
        h,
        {
            1: set(range(0, 20)),
            2: set(range(0, 10)),
            3: set(range(10, 20)),
            4: set(range(20, 45)),
        },
    )


class TestExpectedStrategyCost:
    def test_positive_and_finite(self, small_tree):
        probs = ProbabilityModel(small_tree, flat_counts, upper_threshold=15, lower_threshold=3)
        cost = expected_strategy_cost(small_tree, probs, StaticNavigation(small_tree))
        assert 0 < cost < 10_000

    def test_single_node_tree_costs_its_results(self):
        h = ConceptHierarchy.from_parents([-1], ["MeSH"])
        tree = tree_from_mapping(h, {})
        probs = ProbabilityModel(tree, flat_counts)
        cost = expected_strategy_cost(tree, probs, StaticNavigation(tree))
        assert cost == 0.0  # empty root, pE mass 0

    def test_heuristic_never_worse_than_static_under_model(self, small_tree):
        """The heuristic optimizes exactly this objective, so it must be at
        least as good as any fixed policy on trees it solves exactly."""
        probs = ProbabilityModel(small_tree, flat_counts, upper_threshold=15, lower_threshold=3)
        heuristic_cost = expected_strategy_cost(
            small_tree, probs, HeuristicReducedOpt(small_tree, probs)
        )
        static_cost = expected_strategy_cost(
            small_tree, probs, StaticNavigation(small_tree)
        )
        assert heuristic_cost <= static_cost + 1e-9

    def test_heuristic_matches_opt_on_exactly_solved_trees(self, small_tree):
        """On a ≤N-node tree the heuristic *is* Opt-EdgeCut; the evaluator
        must agree with the optimizer's own expected cost."""
        probs = ProbabilityModel(small_tree, flat_counts, upper_threshold=15, lower_threshold=3)
        component = Component(small_tree, small_tree.root)
        cut_tree = CutTree.from_component(small_tree, probs, component)
        optimal = OptEdgeCut(cut_tree, probs).solve()
        evaluated = expected_strategy_cost(
            small_tree, probs, HeuristicReducedOpt(small_tree, probs)
        )
        assert evaluated == pytest.approx(optimal.expected_cost)

    def test_paged_static_costs_evaluated(self, small_tree):
        probs = ProbabilityModel(small_tree, flat_counts, upper_threshold=15, lower_threshold=3)
        cost = expected_strategy_cost(
            small_tree, probs, PagedStaticNavigation(small_tree, page_size=1)
        )
        assert cost > 0

    def test_component_budget_enforced(self, small_tree):
        probs = ProbabilityModel(small_tree, flat_counts, upper_threshold=15, lower_threshold=3)
        with pytest.raises(RuntimeError):
            expected_strategy_cost(
                small_tree, probs, StaticNavigation(small_tree), max_components=1
            )

    def test_works_on_workload_scale_tree(self, small_workload):
        prepared = small_workload.prepare("LbetaT2")
        cost = expected_strategy_cost(
            prepared.tree,
            prepared.probs,
            HeuristicReducedOpt(prepared.tree, prepared.probs),
        )
        assert cost > 0
