"""Unit tests for relevance ranking of revealed concepts."""

from __future__ import annotations

import pytest

from repro.core.active_tree import ActiveTree
from repro.core.relevance import rank_siblings, ranked_visualization, relevance_of
from repro.core.static_nav import StaticNavigation


@pytest.fixture()
def expanded_active(fragment_tree):
    active = ActiveTree(fragment_tree)
    strategy = StaticNavigation(fragment_tree)
    active.expand(
        fragment_tree.root, strategy.best_cut(active.component(fragment_tree.root)).cut
    )
    return active


class TestRelevance:
    def test_relevance_of_singleton_is_node_mass(self, expanded_active, fragment_probs, fragment_tree):
        # Fully expand one branch to get singleton components.
        for node in list(expanded_active.component_roots()):
            if node == fragment_tree.root:
                continue
        # Any visible node's relevance equals its component mass.
        for node in expanded_active.visible_nodes():
            expected = sum(
                fragment_probs.node_mass(m)
                for m in expanded_active.component(node)
            )
            assert relevance_of(expanded_active, fragment_probs, node) == pytest.approx(expected)

    def test_relevance_shrinks_after_expansion(self, fragment_tree, fragment_probs, fragment_hierarchy):
        active = ActiveTree(fragment_tree)
        root_relevance = relevance_of(active, fragment_probs, fragment_tree.root)
        cell_death = fragment_hierarchy.by_label("Cell Death")
        active.expand(fragment_tree.root, [(fragment_tree.parent(cell_death), cell_death)])
        assert relevance_of(active, fragment_probs, fragment_tree.root) < root_relevance


class TestRankSiblings:
    def test_preserves_tree_shape(self, expanded_active, fragment_probs):
        rows = expanded_active.visualize()
        ranked = ranked_visualization(expanded_active, fragment_probs)
        assert {r.node for r in ranked} == {r.node for r in rows}
        # Parents still precede their children.
        position = {r.node: i for i, r in enumerate(ranked)}
        for row in ranked:
            if row.parent != -1:
                assert position[row.parent] < position[row.node]

    def test_relevance_order_descends_within_siblings(self, expanded_active, fragment_probs):
        ranked = ranked_visualization(expanded_active, fragment_probs, by="relevance")
        by_parent = {}
        for row in ranked:
            by_parent.setdefault(row.parent, []).append(row)
        for siblings in by_parent.values():
            scores = [
                relevance_of(expanded_active, fragment_probs, r.node) for r in siblings
            ]
            assert scores == sorted(scores, reverse=True)

    def test_count_order_matches_gopubmed_style(self, expanded_active, fragment_probs):
        ranked = ranked_visualization(expanded_active, fragment_probs, by="count")
        by_parent = {}
        for row in ranked:
            by_parent.setdefault(row.parent, []).append(row)
        for siblings in by_parent.values():
            counts = [r.count for r in siblings]
            assert counts == sorted(counts, reverse=True)

    def test_unknown_policy_rejected(self, expanded_active, fragment_probs):
        with pytest.raises(ValueError):
            ranked_visualization(expanded_active, fragment_probs, by="magic")

    def test_rank_siblings_handles_empty(self):
        assert rank_siblings([], key=lambda r: 0.0) == []
