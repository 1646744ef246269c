"""Unit tests for the paged-static ("more button") baseline."""

from __future__ import annotations

import pytest

from repro.core.active_tree import ActiveTree
from repro.core.paged_static import PagedStaticNavigation
from repro.core.session import NavigationSession
from repro.core.simulator import navigate_to_target
from tests.oracles.member_sets import subtree_results


class TestPaging:
    def test_first_page_reveals_top_children_by_count(self, fragment_tree):
        strategy = PagedStaticNavigation(fragment_tree, page_size=2)
        active = ActiveTree(fragment_tree)
        decision = strategy.best_cut(active.component(fragment_tree.root))
        assert len(decision.cut) == 2
        revealed = [child for _, child in decision.cut]
        counts = [len(subtree_results(fragment_tree, c)) for c in revealed]
        all_counts = sorted(
            (len(subtree_results(fragment_tree, c)) for c in fragment_tree.children(fragment_tree.root)),
            reverse=True,
        )
        assert counts == all_counts[:2]

    def test_more_button_pages_through_children(self, fragment_tree):
        root = fragment_tree.root
        n_children = len(fragment_tree.children(root))
        strategy = PagedStaticNavigation(fragment_tree, page_size=1)
        active = ActiveTree(fragment_tree)
        pages = 0
        while active.is_expandable(root):
            decision = strategy.best_cut(active.component(root))
            if not decision.cut:
                break
            active.expand(root, decision.cut)
            pages += 1
            if pages > n_children + 1:
                pytest.fail("paging did not terminate")
        # Every child revealed, one page each.
        assert pages == n_children
        for child in fragment_tree.children(root):
            assert active.is_visible(child)

    def test_pages_never_repeat_children(self, fragment_tree):
        strategy = PagedStaticNavigation(fragment_tree, page_size=2)
        active = ActiveTree(fragment_tree)
        seen = set()
        while active.is_expandable(fragment_tree.root):
            decision = strategy.best_cut(active.component(fragment_tree.root))
            if not decision.cut:
                break
            new = {child for _, child in decision.cut}
            assert not new & seen
            seen |= new
            active.expand(fragment_tree.root, decision.cut)

    def test_page_size_validation(self, fragment_tree):
        with pytest.raises(ValueError):
            PagedStaticNavigation(fragment_tree, page_size=0)

    def test_large_page_equals_plain_static(self, fragment_tree):
        strategy = PagedStaticNavigation(fragment_tree, page_size=1000)
        active = ActiveTree(fragment_tree)
        decision = strategy.best_cut(active.component(fragment_tree.root))
        assert len(decision.cut) == len(fragment_tree.children(fragment_tree.root))


class TestNavigation:
    def test_reaches_target(self, fragment_tree, fragment_hierarchy):
        target = fragment_hierarchy.by_label("Apoptosis")
        strategy = PagedStaticNavigation(fragment_tree, page_size=2)
        outcome = navigate_to_target(fragment_tree, strategy, target)
        assert outcome.reached

    def test_footnote2_cost_close_to_static(self, fragment_tree, fragment_hierarchy):
        """Paper footnote 2: paging does not change cost considerably —
        reveals go down but 'more' clicks go up."""
        from repro.core.static_nav import StaticNavigation

        target = fragment_hierarchy.by_label("Apoptosis")
        static = navigate_to_target(
            fragment_tree, StaticNavigation(fragment_tree), target, show_results=False
        )
        paged = navigate_to_target(
            fragment_tree,
            PagedStaticNavigation(fragment_tree, page_size=3),
            target,
            show_results=False,
        )
        assert paged.reached
        assert paged.expand_actions >= static.expand_actions
        # Same ballpark overall (within 2x either way on the fragment).
        assert paged.navigation_cost <= 2 * static.navigation_cost

    def test_works_through_session(self, fragment_tree):
        session = NavigationSession(
            fragment_tree, PagedStaticNavigation(fragment_tree, page_size=2)
        )
        outcome = session.expand(fragment_tree.root)
        assert len(outcome.revealed) == 2
