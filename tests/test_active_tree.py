"""Unit tests for repro.core.active_tree."""

from __future__ import annotations

import pytest

from repro.core.active_tree import ActiveTree
from repro.core.navigation_tree import NavigationTree
from repro.hierarchy.concept import ConceptHierarchy
from tests.oracles.member_sets import distinct_results, tree_from_mapping


@pytest.fixture()
def tree() -> NavigationTree:
    # Mirrors the paper's Fig. 3 component:
    # BP(1) -> CP(2) -> CD(3) -> {Auto(4), Apo(5), Necr(6)}
    #               -> CGP(7) -> Prolif(8) -> Div(9)
    h = ConceptHierarchy.from_parents(
        [-1, 0, 1, 2, 3, 3, 3, 2, 7, 8],
        [
            "MeSH",
            "Biological Phenomena",
            "Cell Physiology",
            "Cell Death",
            "Autophagy",
            "Apoptosis",
            "Necrosis",
            "Cell Growth Processes",
            "Cell Proliferation",
            "Cell Division",
        ],
    )
    annotations = {
        1: {100},
        2: {101},
        3: {1, 2},
        4: {3},
        5: set(range(10, 45)),
        6: {4, 5},
        7: set(range(50, 60)),
        8: set(range(50, 60)),
        9: set(range(52, 58)),
    }
    return tree_from_mapping(h, annotations)


@pytest.fixture()
def active(tree) -> ActiveTree:
    return ActiveTree(tree)


class TestInitialState:
    def test_single_component_holds_everything(self, active, tree):
        assert frozenset(active.component(tree.root)) == frozenset(tree.iter_dfs())

    def test_only_root_visible(self, active, tree):
        assert active.visible_nodes() == [tree.root]

    def test_root_is_expandable(self, active, tree):
        assert active.is_expandable(tree.root)

    def test_hidden_component_lookup_raises(self, active):
        with pytest.raises(KeyError):
            active.component(5)

    def test_component_count_is_distinct_citations(self, active, tree):
        assert active.component_count(tree.root) == len(
            distinct_results(tree, tree.iter_dfs())
        )

    def test_singleton_tree_has_no_components(self):
        h = ConceptHierarchy.from_parents([-1], ["MeSH"])
        lone = tree_from_mapping(h, {})
        single = ActiveTree(lone)
        assert not single.is_expandable(lone.root)
        assert frozenset(single.component(lone.root)) == frozenset({lone.root})


class TestExpand:
    def test_fig3_edgecut(self, active, tree):
        # The paper's Fig. 3 cut: (Cell Physiology, Cell Death) and
        # (Cell Growth Processes, Cell Proliferation).
        roots = active.expand(0, [(2, 3), (7, 8)])
        assert roots == [0, 3, 8]
        assert active.is_visible(3)
        assert active.is_visible(8)
        assert not active.is_visible(2)  # Cell Physiology stays hidden
        assert not active.is_visible(7)  # Cell Growth Processes hidden

    def test_components_after_cut(self, active):
        active.expand(0, [(2, 3), (7, 8)])
        assert frozenset(active.component(3)) == frozenset({3, 4, 5, 6})
        assert frozenset(active.component(8)) == frozenset({8, 9})
        assert frozenset(active.component(0)) == frozenset({0, 1, 2, 7})

    def test_counts_shrink_after_expansion(self, active, tree):
        # Fig. 2b→2c: the upper component count drops as concepts reveal.
        before = active.component_count(0)
        active.expand(0, [(2, 3), (7, 8)])
        after = active.component_count(0)
        assert after < before

    def test_empty_cut_rejected(self, active):
        with pytest.raises(ValueError):
            active.expand(0, [])

    def test_expand_non_component_rejected(self, active):
        with pytest.raises(ValueError):
            active.expand(5, [(5, 9)])

    def test_expand_with_invalid_cut_rejected(self, active):
        with pytest.raises(ValueError):
            active.expand(0, [(0, 1), (1, 2)])

    def test_singleton_results_removed_from_components(self, active):
        # Cutting everything below node 3 leaves singletons, which are not
        # tracked as components.
        active.expand(0, [(2, 3)])
        active.expand(3, [(3, 4), (3, 5), (3, 6)])
        assert not active.is_expandable(4)
        assert not active.is_expandable(5)
        assert frozenset(active.component(4)) == frozenset({4})

    def test_expand_on_upper_component(self, active):
        # Fig. 5: after the first cut, the upper subtree can be expanded
        # again, revealing Cell Growth Processes.
        active.expand(0, [(2, 3), (7, 8)])
        roots = active.expand(0, [(2, 7)])
        assert roots == [0, 7]
        assert active.is_visible(7)

    def test_containing_root(self, active):
        active.expand(0, [(2, 3), (7, 8)])
        assert active.containing_root(5) == 3
        assert active.containing_root(9) == 8
        assert active.containing_root(2) == 0
        assert active.containing_root(3) == 3  # visible → itself


class TestBacktrack:
    def test_backtrack_restores_previous_state(self, active, tree):
        initial_visible = set(active.visible_nodes())
        active.expand(0, [(2, 3)])
        assert active.backtrack()
        assert set(active.visible_nodes()) == initial_visible
        assert frozenset(active.component(tree.root)) == frozenset(tree.iter_dfs())

    def test_backtrack_at_initial_state_returns_false(self, active):
        assert not active.backtrack()

    def test_backtrack_is_stackable(self, active):
        active.expand(0, [(2, 3), (7, 8)])
        active.expand(3, [(3, 5)])
        assert active.expansions_performed == 2
        active.backtrack()
        assert active.is_visible(3)
        assert not active.is_visible(5)
        active.backtrack()
        assert not active.is_visible(3)


class TestVisualization:
    def test_initial_visualization_is_root_only(self, active, tree):
        rows = active.visualize()
        assert len(rows) == 1
        assert rows[0].node == tree.root
        assert rows[0].expandable

    def test_visualization_after_fig3_cut(self, active, tree):
        active.expand(0, [(2, 3), (7, 8)])
        rows = active.visualize()
        labels = [r.label for r in rows]
        assert labels == ["MeSH", "Cell Death", "Cell Proliferation"]
        by_label = {r.label: r for r in rows}
        # Lower roots hang off the visible root (their real parents are hidden).
        assert by_label["Cell Death"].parent == tree.root
        assert by_label["Cell Death"].depth == 1
        assert by_label["Cell Death"].count == 40  # {1,2}∪{3}∪(10..44)∪{4,5}
        assert by_label["Cell Proliferation"].count == 10

    def test_upper_expansion_re_parents_revealed_nodes(self, active):
        # Fig. 5b: Cell Growth Processes becomes the parent of the
        # previously revealed Cell Proliferation.
        active.expand(0, [(2, 3), (7, 8)])
        active.expand(0, [(2, 7)])
        rows = {r.label: r for r in active.visualize()}
        assert rows["Cell Proliferation"].parent == rows["Cell Growth Processes"].node

    def test_non_expandable_rows_have_no_hyperlink(self, active):
        active.expand(0, [(2, 3)])
        active.expand(3, [(3, 4), (3, 5), (3, 6)])
        rows = {r.label: r for r in active.visualize()}
        assert not rows["Autophagy"].expandable
        assert rows["MeSH"].expandable
