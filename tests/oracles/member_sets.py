"""Member-set views of navigation trees and components, for tests and benches.

The library has one component form, the interval
:class:`~repro.core.edgecut.Component`, and builds navigation trees from
an annotation CSR (:meth:`~repro.core.navigation_tree.NavigationTree.from_csr`).
Tests and benches state scenarios as a mapping (concept → citations) and
check tree content as plain sets; this module converts between the two.
The member-set EdgeCut helpers also serve the frozenset reference oracles
(``active_tree_reference``), which must not lean on the interval code
they are pinned against.
"""

from __future__ import annotations

import operator
from typing import FrozenSet, Iterable, List, Mapping, Optional, Set, Tuple

import numpy as np

from repro.core.edgecut import Component
from repro.core.navigation_tree import NavigationTree
from repro.hierarchy.concept import ConceptHierarchy

__all__ = [
    "tree_from_mapping",
    "subtree_results",
    "distinct_results",
    "component_from_members",
    "component_edges",
    "is_valid_member_cut",
]

Edge = Tuple[int, int]


def tree_from_mapping(
    hierarchy: ConceptHierarchy,
    annotations: Mapping[int, Iterable[int]],
    root: Optional[int] = None,
) -> NavigationTree:
    """The navigation tree of a concept → citations mapping.

    Entries whose value is falsy are absent (the reference builder's
    truthiness test), keys that are not hierarchy node ids are ignored,
    and each CSR row is the concept's sorted distinct citation ids.
    """
    rows = {}
    for node, ids in annotations.items():
        try:
            index = operator.index(node)
        except TypeError:
            continue
        if ids and 0 <= index < len(hierarchy):
            rows[index] = sorted(set(ids))
    concepts = sorted(rows)
    offsets = np.cumsum([0] + [len(rows[c]) for c in concepts])
    values = [c for concept in concepts for c in rows[concept]]
    return NavigationTree.from_csr(hierarchy, concepts, offsets, values, root)


def subtree_results(tree: NavigationTree, node: int) -> FrozenSet[int]:
    """Distinct citations in the subtree of ``node`` (the Fig. 1 count)."""
    return frozenset(Component(tree, node).distinct_results().tolist())


def distinct_results(tree: NavigationTree, nodes: Iterable[int]) -> FrozenSet[int]:
    """Distinct citations attached to any node in ``nodes``."""
    combined: Set[int] = set()
    for node in nodes:
        combined.update(tree.results(node).tolist())
    return frozenset(combined)


def component_from_members(
    tree: NavigationTree, members: Iterable[int], root: int
) -> Component:
    """The interval form of a member set rooted at ``root``.

    Raises:
        ValueError: the members are not a connected subtree at ``root``.
    """
    member_set = frozenset(members)
    if root not in member_set:
        raise ValueError("component is not a connected subtree at its root")
    excluded = []
    for node in tree.iter_dfs(root):
        if node not in member_set and tree.parent(node) in member_set:
            excluded.append(tree.position(node))
    component = Component(tree, root, tuple(excluded))
    if frozenset(component) != member_set:
        raise ValueError("component is not a connected subtree at its root")
    return component


def component_edges(tree: NavigationTree, members: Iterable[int]) -> List[Edge]:
    """Navigation-tree edges with both endpoints inside ``members``.

    Iterates the members in sorted order, so the edge list is a function
    of the member set's contents, not of its iteration order.
    """
    member_set = frozenset(members)
    return [
        (node, child)
        for node in sorted(member_set)
        for child in tree.children(node)
        if child in member_set
    ]


def is_valid_member_cut(
    tree: NavigationTree, members: FrozenSet[int], edges: Iterable[Edge]
) -> bool:
    """Definition 3 for a cut of the component with member set ``members``."""
    child_endpoints: List[int] = []
    for parent, child in edges:
        if parent not in members or child not in members:
            return False
        if tree.parent(child) != parent:
            return False
        child_endpoints.append(child)
    if len(set(child_endpoints)) != len(child_endpoints):
        return False
    for i, a in enumerate(child_endpoints):
        for b in child_endpoints[i + 1 :]:
            if tree.is_tree_ancestor(a, b) or tree.is_tree_ancestor(b, a):
                return False
    return True
