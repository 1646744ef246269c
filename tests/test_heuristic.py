"""Unit tests for repro.core.heuristic (Heuristic-ReducedOpt)."""

from __future__ import annotations

import pytest

from repro.core.active_tree import ActiveTree
from repro.core.edgecut import Component, is_valid_edgecut
from repro.core.heuristic import HeuristicReducedOpt
from repro.core.opt_edgecut import CutTree, OptEdgeCut
from repro.core.probabilities import ProbabilityModel
from repro.hierarchy.generator import generate_hierarchy
from tests.oracles.member_sets import distinct_results, tree_from_mapping


@pytest.fixture()
def big_tree():
    """A navigation tree well above the reduction threshold."""
    h = generate_hierarchy(target_size=300, seed=21)
    annotations = {}
    for i, node in enumerate(range(1, len(h))):
        if i % 2 == 0:
            annotations[node] = set(range(i % 40, i % 40 + 5))
    return tree_from_mapping(h, annotations)


@pytest.fixture()
def big_probs(big_tree):
    return ProbabilityModel(big_tree, lambda n: 500)


class TestReduction:
    def test_reduced_tree_respects_limit(self, big_tree, big_probs):
        strategy = HeuristicReducedOpt(big_tree, big_probs, max_reduced_nodes=10)
        component = Component(big_tree, big_tree.root)
        reduced, part_roots = strategy._reduce(component)
        assert 2 <= len(reduced) <= 10
        assert len(part_roots) == len(reduced)

    def test_supernodes_partition_the_component(self, big_tree, big_probs):
        strategy = HeuristicReducedOpt(big_tree, big_probs, max_reduced_nodes=8)
        component = Component(big_tree, big_tree.root)
        reduced, _ = strategy._reduce(component)
        members = [m for payload in reduced.payload for m in payload]
        assert sorted(members) == sorted(component)

    def test_supernode_results_are_member_unions(self, big_tree, big_probs):
        strategy = HeuristicReducedOpt(big_tree, big_probs)
        component = Component(big_tree, big_tree.root)
        reduced, _ = strategy._reduce(component)
        for i, payload in enumerate(reduced.payload):
            # A supernode carries its members' citations back to back.
            assert set(reduced.results[i].tolist()) == distinct_results(big_tree, payload)

    def test_root_supernode_is_node_zero(self, big_tree, big_probs):
        strategy = HeuristicReducedOpt(big_tree, big_probs)
        component = Component(big_tree, big_tree.root)
        reduced, part_roots = strategy._reduce(component)
        assert part_roots[0] == big_tree.root
        assert big_tree.root in reduced.payload[0]


class TestBestCut:
    def test_cut_is_valid_for_original_tree(self, big_tree, big_probs):
        strategy = HeuristicReducedOpt(big_tree, big_probs)
        component = Component(big_tree, big_tree.root)
        decision = strategy.best_cut(component)
        assert decision.cut
        assert is_valid_edgecut(big_tree, component, decision.cut)

    def test_small_component_solved_exactly(self, big_tree, big_probs):
        # Take a small subtree: no reduction should happen.
        small_root = None
        for node in big_tree.iter_dfs():
            size = big_tree.subtree_size(node)
            if 3 <= size <= 8:
                small_root = node
                break
        assert small_root is not None
        component = Component(big_tree, small_root)
        strategy = HeuristicReducedOpt(big_tree, big_probs, max_reduced_nodes=10)
        decision = strategy.best_cut(component)
        assert decision.reduced_size == len(component)
        # Must match a direct Opt-EdgeCut run.
        cut_tree = CutTree.from_component(big_tree, big_probs, component)
        exact = OptEdgeCut(cut_tree, big_probs).solve()
        assert decision.expected_cost == pytest.approx(exact.expected_cost)

    def test_singleton_component_yields_empty_cut(self, big_tree, big_probs):
        strategy = HeuristicReducedOpt(big_tree, big_probs)
        leaf = next(n for n in big_tree.iter_dfs() if big_tree.is_leaf(n))
        decision = strategy.best_cut(Component(big_tree, leaf))
        assert decision.cut == ()

    def test_choose_cut_uses_active_component(self, big_tree, big_probs):
        strategy = HeuristicReducedOpt(big_tree, big_probs)
        active = ActiveTree(big_tree)
        decision = strategy.best_cut(active.component(big_tree.root))
        assert decision.cut
        active.expand(big_tree.root, decision.cut)  # applies cleanly

    def test_reduced_size_instrumentation(self, big_tree, big_probs):
        strategy = HeuristicReducedOpt(big_tree, big_probs, max_reduced_nodes=10)
        component = Component(big_tree, big_tree.root)
        decision = strategy.best_cut(component)
        assert 2 <= decision.reduced_size <= 10

    def test_max_reduced_nodes_validation(self, big_tree, big_probs):
        with pytest.raises(ValueError):
            HeuristicReducedOpt(big_tree, big_probs, max_reduced_nodes=1)


class TestRepeatedExpansion:
    def test_navigation_descends_without_errors(self, big_tree, big_probs):
        """Repeatedly expanding components never produces an invalid cut."""
        strategy = HeuristicReducedOpt(big_tree, big_probs)
        active = ActiveTree(big_tree)
        for _ in range(15):
            expandable = active.component_roots()
            if not expandable:
                break
            node = max(expandable, key=lambda n: len(active.component(n)))
            decision = strategy.best_cut(active.component(node))
            assert is_valid_edgecut(big_tree, active.component(node), decision.cut)
            active.expand(node, decision.cut)
