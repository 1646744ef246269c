"""Unit tests for repro.core.static_nav (the baseline)."""

from __future__ import annotations


from repro.core.active_tree import ActiveTree
from repro.core.static_nav import StaticNavigation


class TestStaticNavigation:
    def test_root_expansion_reveals_all_children(self, fragment_tree):
        strategy = StaticNavigation(fragment_tree)
        active = ActiveTree(fragment_tree)
        decision = strategy.best_cut(active.component(fragment_tree.root))
        expected = {(fragment_tree.root, c) for c in fragment_tree.children(fragment_tree.root)}
        assert set(decision.cut) == expected

    def test_expansion_applies_to_active_tree(self, fragment_tree):
        strategy = StaticNavigation(fragment_tree)
        active = ActiveTree(fragment_tree)
        decision = strategy.best_cut(active.component(fragment_tree.root))
        active.expand(fragment_tree.root, decision.cut)
        for child in fragment_tree.children(fragment_tree.root):
            assert active.is_visible(child)

    def test_second_level_expansion(self, fragment_tree, fragment_hierarchy):
        strategy = StaticNavigation(fragment_tree)
        active = ActiveTree(fragment_tree)
        active.expand(fragment_tree.root, strategy.best_cut(active.component(fragment_tree.root)).cut)
        # Expand a child that has descendants.
        target = None
        for child in fragment_tree.children(fragment_tree.root):
            if active.is_expandable(child):
                target = child
                break
        assert target is not None
        decision = strategy.best_cut(active.component(target))
        assert set(decision.cut) == {
            (target, c) for c in fragment_tree.children(target)
        }
        active.expand(target, decision.cut)
        for child in fragment_tree.children(target):
            assert active.is_visible(child)

    def test_upper_component_becomes_singleton(self, fragment_tree):
        # After a static expansion the expanded node keeps nothing hidden.
        strategy = StaticNavigation(fragment_tree)
        active = ActiveTree(fragment_tree)
        active.expand(fragment_tree.root, strategy.best_cut(active.component(fragment_tree.root)).cut)
        assert not active.is_expandable(fragment_tree.root)
        assert frozenset(active.component(fragment_tree.root)) == {fragment_tree.root}

    def test_reveal_count_matches_child_count(self, fragment_tree):
        strategy = StaticNavigation(fragment_tree)
        active = ActiveTree(fragment_tree)
        decision = strategy.best_cut(active.component(fragment_tree.root))
        assert len(decision.cut) == len(fragment_tree.children(fragment_tree.root))

    def test_strategy_name(self, fragment_tree):
        assert StaticNavigation(fragment_tree).name == "static"
