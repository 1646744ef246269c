"""Unit tests for the networkx / DOT graph exports."""

from __future__ import annotations

import networkx as nx

from repro.core.active_tree import ActiveTree
from repro.core.static_nav import StaticNavigation
from repro.viz.graph import active_tree_to_networkx, navigation_tree_to_networkx, to_dot
from tests.oracles.member_sets import subtree_results


class TestNavigationTreeExport:
    def test_structure_matches(self, fragment_tree):
        graph = navigation_tree_to_networkx(fragment_tree)
        assert graph.number_of_nodes() == fragment_tree.size()
        assert graph.number_of_edges() == fragment_tree.size() - 1
        assert nx.is_arborescence(graph)

    def test_attributes(self, fragment_tree, fragment_hierarchy):
        graph = navigation_tree_to_networkx(fragment_tree)
        apoptosis = fragment_hierarchy.by_label("Apoptosis")
        data = graph.nodes[apoptosis]
        assert data["label"] == "Apoptosis"
        assert data["results"] == 35
        assert data["subtree_results"] == len(subtree_results(fragment_tree, apoptosis))
        assert data["depth"] == fragment_tree.tree_depth(apoptosis)

    def test_root_reaches_everything(self, fragment_tree):
        graph = navigation_tree_to_networkx(fragment_tree)
        reachable = nx.descendants(graph, fragment_tree.root) | {fragment_tree.root}
        assert reachable == set(graph.nodes)


class TestActiveTreeExport:
    def test_visibility_attributes(self, fragment_tree):
        active = ActiveTree(fragment_tree)
        strategy = StaticNavigation(fragment_tree)
        active.expand(fragment_tree.root, strategy.best_cut(active.component(fragment_tree.root)).cut)
        graph = active_tree_to_networkx(active)
        visible = {n for n, d in graph.nodes(data=True) if d["visible"]}
        assert visible == set(active.visible_nodes())
        for node in visible:
            assert graph.nodes[node]["component_count"] == active.component_count(node)

    def test_hidden_nodes_lack_component_count(self, fragment_tree):
        active = ActiveTree(fragment_tree)
        graph = active_tree_to_networkx(active)
        hidden = [n for n, d in graph.nodes(data=True) if not d["visible"]]
        assert hidden
        assert all("component_count" not in graph.nodes[n] for n in hidden)


class TestDot:
    def test_dot_structure(self, fragment_tree):
        graph = navigation_tree_to_networkx(fragment_tree)
        dot = to_dot(graph)
        assert dot.startswith("digraph bionav {")
        assert dot.rstrip().endswith("}")
        assert dot.count("->") == graph.number_of_edges()

    def test_highlight_and_hidden_styles(self, fragment_tree, fragment_hierarchy):
        active = ActiveTree(fragment_tree)
        graph = active_tree_to_networkx(active)
        apoptosis = fragment_hierarchy.by_label("Apoptosis")
        dot = to_dot(graph, highlight=[apoptosis])
        assert "dashed" in dot  # hidden nodes exist initially
        assert "filled" in dot

    def test_long_labels_truncated(self, fragment_tree):
        graph = navigation_tree_to_networkx(fragment_tree)
        dot = to_dot(graph, max_label_length=10)
        assert "…" in dot
