"""Unit tests for repro.core.edgecut."""

from __future__ import annotations

import pytest

from repro.core.edgecut import Component, component_children, is_valid_edgecut
from repro.core.navigation_tree import NavigationTree
from repro.hierarchy.concept import ConceptHierarchy
from tests.oracles.active_tree_reference import cut_components
from tests.oracles.member_sets import (
    component_edges,
    component_from_members,
    tree_from_mapping,
)


@pytest.fixture()
def tree() -> NavigationTree:
    # root(0) -> a(1) -> b(2) -> c(3)
    #                 -> d(4)
    #         -> e(5)
    h = ConceptHierarchy.from_parents(
        [-1, 0, 1, 2, 1, 0], ["root", "a", "b", "c", "d", "e"]
    )
    annotations = {n: {n * 10} for n in range(1, 6)}
    return tree_from_mapping(h, annotations)


@pytest.fixture()
def full_component(tree):
    return frozenset(tree.iter_dfs())


class TestComponentHelpers:
    def test_component_edges_full(self, tree, full_component):
        edges = set(component_edges(tree, full_component))
        assert edges == {(0, 1), (1, 2), (2, 3), (1, 4), (0, 5)}

    def test_component_edges_restricted(self, tree):
        component = frozenset({1, 2, 4})
        assert set(component_edges(tree, component)) == {(1, 2), (1, 4)}

    def test_component_children(self, tree):
        assert component_children(tree, Component(tree, tree.root), 1) == [2, 4]
        without_b = component_from_members(tree, {1, 4}, 1)
        assert component_children(tree, without_b, 1) == [4]

    def test_component_from_members_round_trips(self, tree):
        component = component_from_members(tree, {1, 2, 3}, 1)
        assert component.key == (1, (tree.position(4),))
        assert frozenset(component) == {1, 2, 3}

    def test_component_from_members_rejects_disconnected(self, tree):
        with pytest.raises(ValueError):
            component_from_members(tree, {0, 2}, 0)


class TestValidity:
    @pytest.fixture()
    def root_component(self, tree):
        return Component(tree, tree.root)

    def test_valid_single_edge(self, tree, root_component):
        assert is_valid_edgecut(tree, root_component, [(1, 2)])

    def test_valid_sibling_edges(self, tree, root_component):
        assert is_valid_edgecut(tree, root_component, [(1, 2), (1, 4)])

    def test_invalid_same_path(self, tree, root_component):
        # (0,1) and (1,2) lie on the root→c path.
        assert not is_valid_edgecut(tree, root_component, [(0, 1), (1, 2)])
        assert not is_valid_edgecut(tree, root_component, [(1, 2), (2, 3)])

    def test_invalid_edge_outside_component(self, tree):
        component = component_from_members(tree, {1, 2, 3}, 1)
        assert not is_valid_edgecut(tree, component, [(1, 4)])

    def test_invalid_non_edge(self, tree, root_component):
        assert not is_valid_edgecut(tree, root_component, [(0, 3)])

    def test_duplicate_edge_invalid(self, tree, root_component):
        assert not is_valid_edgecut(tree, root_component, [(1, 2), (1, 2)])

    def test_empty_cut_is_valid(self, tree, root_component):
        assert is_valid_edgecut(tree, root_component, [])


class TestCutComponents:
    def test_basic_cut(self, tree, full_component):
        upper, lowers = cut_components(tree, full_component, 0, [(1, 2)])
        assert upper == frozenset({0, 1, 4, 5})
        assert lowers == {2: frozenset({2, 3})}

    def test_multi_edge_cut(self, tree, full_component):
        upper, lowers = cut_components(tree, full_component, 0, [(1, 2), (0, 5)])
        assert upper == frozenset({0, 1, 4})
        assert lowers[2] == frozenset({2, 3})
        assert lowers[5] == frozenset({5})

    def test_components_partition_the_component(self, tree, full_component):
        upper, lowers = cut_components(tree, full_component, 0, [(1, 2), (1, 4)])
        pieces = [upper] + list(lowers.values())
        union = frozenset().union(*pieces)
        assert union == full_component
        assert sum(len(p) for p in pieces) == len(full_component)

    def test_cut_within_sub_component(self, tree):
        component = frozenset({1, 2, 3, 4})
        upper, lowers = cut_components(tree, component, 1, [(2, 3)])
        assert upper == frozenset({1, 2, 4})
        assert lowers == {3: frozenset({3})}

    def test_invalid_cut_raises(self, tree, full_component):
        with pytest.raises(ValueError):
            cut_components(tree, full_component, 0, [(0, 1), (1, 2)])
