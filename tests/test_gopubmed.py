"""Unit tests for the GoPubMed-style baseline (paper §IX)."""

from __future__ import annotations

import pytest

from repro.core.active_tree import ActiveTree
from repro.core.gopubmed import GoPubMedNavigation
from repro.core.simulator import navigate_to_target
from tests.oracles.member_sets import subtree_results


class TestCategoryBar:
    def test_root_expansion_reveals_all_categories(self, fragment_tree):
        strategy = GoPubMedNavigation(fragment_tree)
        active = ActiveTree(fragment_tree)
        decision = strategy.best_cut(active.component(fragment_tree.root))
        revealed = {child for _, child in decision.cut}
        assert revealed == set(fragment_tree.children(fragment_tree.root))

    def test_custom_categories(self, fragment_tree, fragment_hierarchy):
        cell_death = fragment_hierarchy.by_label("Cell Death")
        strategy = GoPubMedNavigation(fragment_tree, categories=[cell_death])
        active = ActiveTree(fragment_tree)
        decision = strategy.best_cut(active.component(fragment_tree.root))
        assert decision.cut == ((fragment_tree.parent(cell_death), cell_death),)

    def test_unknown_category_rejected(self, fragment_tree):
        with pytest.raises(ValueError):
            GoPubMedNavigation(fragment_tree, categories=[987654])

    def test_top_k_validation(self, fragment_tree):
        with pytest.raises(ValueError):
            GoPubMedNavigation(fragment_tree, top_k=0)


class TestTopKChildren:
    def test_non_root_expansion_reveals_top_k_by_count(
        self, fragment_tree, fragment_hierarchy
    ):
        strategy = GoPubMedNavigation(fragment_tree, top_k=2)
        active = ActiveTree(fragment_tree)
        active.expand(fragment_tree.root, strategy.best_cut(active.component(fragment_tree.root)).cut)
        cell_death = fragment_hierarchy.by_label("Cell Death")
        parent = active.containing_root(cell_death)
        decision = strategy.best_cut(active.component(parent))
        assert 1 <= len(decision.cut) <= 2
        revealed_counts = [
            len(subtree_results(fragment_tree, child)) for _, child in decision.cut
        ]
        all_counts = sorted(
            (
                len(subtree_results(fragment_tree, c))
                for c in fragment_tree.children(parent)
            ),
            reverse=True,
        )
        assert revealed_counts == all_counts[: len(revealed_counts)]

    def test_repeat_expansion_pages_remaining_children(self, fragment_tree):
        strategy = GoPubMedNavigation(fragment_tree, top_k=1)
        active = ActiveTree(fragment_tree)
        active.expand(fragment_tree.root, strategy.best_cut(active.component(fragment_tree.root)).cut)
        # Pick a visible category with multiple children.
        node = max(
            (n for n in active.component_roots() if n != fragment_tree.root),
            key=lambda n: len(fragment_tree.children(n)),
        )
        first = strategy.best_cut(active.component(node))
        active.expand(node, first.cut)
        if active.is_expandable(node):
            second = strategy.best_cut(active.component(node))
            assert {c for _, c in first.cut}.isdisjoint({c for _, c in second.cut})


class TestNavigation:
    def test_reaches_target(self, fragment_tree, fragment_hierarchy):
        strategy = GoPubMedNavigation(fragment_tree, top_k=3)
        target = fragment_hierarchy.by_label("Apoptosis")
        outcome = navigate_to_target(fragment_tree, strategy, target)
        assert outcome.reached

    def test_reaches_target_on_workload_tree(self, small_workload):
        prepared = small_workload.prepare("varenicline")
        strategy = GoPubMedNavigation(prepared.tree)
        outcome = navigate_to_target(
            prepared.tree, strategy, prepared.target_node, show_results=False
        )
        assert outcome.reached
