"""Graph exports: networkx interop and GraphViz DOT.

Downstream analysis of navigation trees (centrality, path statistics,
visual layout) is easiest in standard graph tooling.  This module converts
navigation trees and active-tree snapshots into ``networkx`` DiGraphs with
the BioNav attributes attached (labels, per-node and per-subtree citation
counts, visibility), and renders a GraphViz DOT form for figures.
"""

from __future__ import annotations

from typing import Iterable

import networkx as nx

from repro.core.active_tree import ActiveTree
from repro.core.edgecut import subtree_result_counts
from repro.core.navigation_tree import NavigationTree

__all__ = ["navigation_tree_to_networkx", "active_tree_to_networkx", "to_dot"]


def navigation_tree_to_networkx(tree: NavigationTree) -> "nx.DiGraph":
    """The navigation tree as a DiGraph (edges parent → child).

    Node attributes: ``label``, ``results`` (|L(n)|), ``subtree_results``
    (the Fig. 1 counts), ``depth``.
    """
    graph = nx.DiGraph()
    nodes = tree.nodes()
    counts = subtree_result_counts(tree, nodes).tolist()
    for node, count, depth in zip(nodes, counts, tree.depth_array().tolist()):
        graph.add_node(
            node,
            label=tree.label(node),
            results=len(tree.results(node)),
            subtree_results=count,
            depth=depth,
        )
    for parent, child in tree.edges():
        graph.add_edge(parent, child)
    return graph


def active_tree_to_networkx(active: ActiveTree) -> "nx.DiGraph":
    """The full navigation tree annotated with the active-tree state.

    Adds ``visible`` and ``component_root`` node attributes, plus
    ``component_count`` (the Definition 5 display count) on visible nodes.
    """
    graph = navigation_tree_to_networkx(active.tree)
    for node, data in graph.nodes(data=True):
        data["visible"] = data["component_root"] = active.is_visible(node)
        if data["visible"]:
            stats = active.stats(node)
            data["component_root"] = stats.expandable
            data["component_count"] = stats.count
    return graph


def to_dot(
    graph: "nx.DiGraph",
    highlight: Iterable[int] = (),
    max_label_length: int = 28,
) -> str:
    """Render a DiGraph produced above as GraphViz DOT.

    Visible nodes (when the attribute is present) are drawn solid, hidden
    ones dashed; highlighted nodes are filled.  Labels show the concept
    name and its display count.
    """
    marked = set(highlight)
    lines = ["digraph bionav {", '  rankdir="LR";', "  node [shape=box];"]
    for node, data in graph.nodes(data=True):
        label = str(data.get("label", node))
        if len(label) > max_label_length:
            label = label[: max_label_length - 1] + "…"
        count = data.get("component_count", data.get("subtree_results"))
        if count is not None:
            label = "%s (%d)" % (label, count)
        style_parts = []
        if data.get("visible") is False:
            style_parts.append("dashed")
        if node in marked:
            style_parts.append("filled")
        style = ' style="%s"' % ",".join(style_parts) if style_parts else ""
        lines.append('  n%d [label="%s"%s];' % (node, label.replace('"', "'"), style))
    for parent, child in graph.edges:
        lines.append("  n%d -> n%d;" % (parent, child))
    lines.append("}")
    return "\n".join(lines)
