"""Adversarial structural edge cases across the core machinery."""

from __future__ import annotations

import pytest

from repro.core.active_tree import ActiveTree
from repro.core.edgecut import Component
from repro.core.heuristic import HeuristicReducedOpt
from repro.core.probabilities import ProbabilityModel
from repro.core.simulator import navigate_to_target
from repro.core.static_nav import StaticNavigation
from repro.hierarchy.concept import ConceptHierarchy
from tests.oracles.member_sets import tree_from_mapping


def flat_counts(node: int) -> int:
    return 100


@pytest.fixture()
def deep_chain_tree():
    """A 300-deep annotated chain — stresses anything recursive."""
    h = ConceptHierarchy.from_parents(
        list(range(-1, 300)), ["MeSH"] + ["level %d" % i for i in range(300)]
    )
    annotations = {n: {n} for n in range(1, len(h))}
    return h, tree_from_mapping(h, annotations)


@pytest.fixture()
def wide_star_tree():
    """A 400-child star — stresses anything quadratic in fanout."""
    h = ConceptHierarchy.from_parents(
        [-1] + [0] * 400, ["MeSH"] + ["leaf %d" % i for i in range(400)]
    )
    annotations = {n: {n, 1000 + (n % 7)} for n in range(1, len(h))}
    return h, tree_from_mapping(h, annotations)


class TestDeepChain:
    def test_embedding_survives_depth(self, deep_chain_tree):
        _, tree = deep_chain_tree
        assert tree.size() == 301
        assert tree.height() == 300

    def test_static_navigation_to_bottom(self, deep_chain_tree):
        h, tree = deep_chain_tree
        target = len(h) - 1
        outcome = navigate_to_target(
            tree, StaticNavigation(tree), target, show_results=False, max_steps=350
        )
        assert outcome.reached
        assert outcome.expand_actions == 300

    def test_heuristic_navigation_to_bottom_is_cheaper_in_expands(self, deep_chain_tree):
        h, tree = deep_chain_tree
        probs = ProbabilityModel(tree, flat_counts)
        target = len(h) - 1
        outcome = navigate_to_target(
            tree,
            HeuristicReducedOpt(tree, probs),
            target,
            show_results=False,
            max_steps=400,
        )
        assert outcome.reached
        # EdgeCuts skip levels; far fewer clicks than one per level.
        assert outcome.expand_actions < 300

    def test_visualization_depth_bounded_by_visible_tree(self, deep_chain_tree):
        _, tree = deep_chain_tree
        active = ActiveTree(tree)
        deepest = max(n for n in tree.iter_dfs())
        # Reveal the deepest node directly: visible depth stays tiny.
        active.expand(tree.root, [(tree.parent(deepest), deepest)])
        rows = active.visualize()
        assert max(r.depth for r in rows) <= 2


class TestWideStar:
    def test_static_root_expansion_reveals_everything(self, wide_star_tree):
        _, tree = wide_star_tree
        active = ActiveTree(tree)
        decision = StaticNavigation(tree).best_cut(active.component(tree.root))
        assert len(decision.cut) == 400

    def test_heuristic_reveals_few(self, wide_star_tree):
        _, tree = wide_star_tree
        probs = ProbabilityModel(tree, flat_counts)
        strategy = HeuristicReducedOpt(tree, probs)
        decision = strategy.best_cut(Component(tree, tree.root))
        assert 1 <= len(decision.cut) <= 10

    def test_partitioning_respects_cap_on_stars(self, wide_star_tree):
        _, tree = wide_star_tree
        probs = ProbabilityModel(tree, flat_counts)
        strategy = HeuristicReducedOpt(tree, probs, max_reduced_nodes=10)
        decision = strategy.best_cut(Component(tree, tree.root))
        assert decision.reduced_size <= 10


class TestDegenerateResults:
    def test_single_citation_corpus(self):
        h = ConceptHierarchy.from_parents([-1, 0], ["MeSH", "only"])
        a = 1
        tree = tree_from_mapping(h, {a: {42}})
        probs = ProbabilityModel(tree, flat_counts)
        outcome = navigate_to_target(tree, HeuristicReducedOpt(tree, probs), a)
        assert outcome.reached
        assert outcome.citations_displayed == 1

    def test_every_node_same_citation(self):
        """Total duplication: all concepts hold the identical citation."""
        nodes = [1, 2, 3, 4, 5]
        h = ConceptHierarchy.from_parents(
            [-1, 0, 0, 0, 0, 0, 1, 2, 3],
            ["MeSH"] + ["n%d" % i for i in range(5)] + ["c%d" % n for n in nodes[:3]],
        )
        annotations = {n: {7} for n in range(1, len(h))}
        tree = tree_from_mapping(h, annotations)
        probs = ProbabilityModel(tree, flat_counts)
        outcome = navigate_to_target(
            tree, HeuristicReducedOpt(tree, probs), nodes[0], show_results=False
        )
        assert outcome.reached

    def test_duplicate_free_tree(self):
        """Zero duplication: every concept holds distinct citations."""
        h = ConceptHierarchy.from_parents([-1, 0, 1, 1], ["MeSH", "a", "b", "c"])
        a, b, c = 1, 2, 3
        tree = tree_from_mapping(h, {a: {1}, b: {2}, c: {3}})
        assert tree.citations_with_duplicates() == len(
            Component(tree, tree.root).distinct_results()
        )
        probs = ProbabilityModel(tree, flat_counts)
        decision = HeuristicReducedOpt(tree, probs).best_cut(
            Component(tree, tree.root))
        assert decision.cut
