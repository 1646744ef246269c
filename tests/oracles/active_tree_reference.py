"""Frozenset active tree: the reference oracle.

The original :class:`~repro.core.active_tree.ActiveTree` kept every
component as a frozenset of its members, with a frozenset of hidden
nodes beside it, and applied an EdgeCut by walking the component
(:func:`cut_components`).  It is kept verbatim here as the oracle that
the interval active tree is pinned against
(``tests/test_active_tree_equivalence.py``) and that
``benchmarks/bench_coldpath.py`` times as the legacy construction.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Sequence, Set, Tuple

from repro.core.active_tree import VisNode
from repro.core.navigation_tree import NavigationTree
from tests.oracles.member_sets import distinct_results, is_valid_member_cut

__all__ = ["ReferenceActiveTree", "cut_components"]

Edge = Tuple[int, int]


def cut_components(
    tree: NavigationTree,
    component: FrozenSet[int],
    root: int,
    edges: Sequence[Edge],
) -> Tuple[FrozenSet[int], Dict[int, FrozenSet[int]]]:
    """Apply a valid EdgeCut and return (upper, {lower_root: lower_nodes}).

    The lower component of a cut edge (p, c) is the component-subtree
    rooted at c; the upper component is everything else and keeps ``root``.

    Raises:
        ValueError: if the cut is not a valid EdgeCut of the component.
    """
    if not is_valid_member_cut(tree, component, edges):
        raise ValueError("not a valid EdgeCut of this component: %r" % (edges,))
    lowers: Dict[int, FrozenSet[int]] = {}
    removed: Set[int] = set()
    for _, child in edges:
        lower = _restricted_subtree(tree, component, child)
        lowers[child] = lower
        removed.update(lower)
    upper = frozenset(component - removed)
    if root not in upper:
        raise ValueError("cut would remove the component root")
    return upper, lowers


def _restricted_subtree(
    tree: NavigationTree, component: FrozenSet[int], node: int
) -> FrozenSet[int]:
    """Nodes of the component subtree rooted at ``node``."""
    collected: Set[int] = set()
    stack = [node]
    while stack:
        current = stack.pop()
        collected.add(current)
        for child in tree.children(current):
            if child in component:
                stack.append(child)
    return frozenset(collected)


class ReferenceActiveTree:
    """Navigation tree + disjoint component subtrees, closed under EdgeCut."""

    def __init__(self, tree: NavigationTree):
        self.tree = tree
        # Non-singleton components only, keyed by their root node.
        self._components: Dict[int, FrozenSet[int]] = {}
        all_nodes = frozenset(tree.iter_dfs())
        if len(all_nodes) > 1:
            self._components[tree.root] = all_nodes
        self._hidden = frozenset(all_nodes - {tree.root})
        self._history: List[Tuple[Dict[int, FrozenSet[int]], FrozenSet[int]]] = []

    # ------------------------------------------------------------------
    # Component accessors
    # ------------------------------------------------------------------
    def component(self, node: int) -> FrozenSet[int]:
        """``I(node)``: the component rooted at ``node`` ({node} if singleton).

        Raises KeyError when ``node`` is hidden inside another component.
        """
        if node in self._components:
            return self._components[node]
        if node in self._hidden:
            raise KeyError("node %r is hidden inside another component" % (node,))
        if node not in self.tree:
            raise KeyError("node %r is not in the navigation tree" % (node,))
        return frozenset((node,))

    def component_roots(self) -> List[int]:
        """Roots of all non-singleton components."""
        return list(self._components)

    def is_visible(self, node: int) -> bool:
        """True when the node appears in the visualization."""
        return node in self.tree and node not in self._hidden

    def is_expandable(self, node: int) -> bool:
        """True when a non-singleton component is rooted at ``node``."""
        return node in self._components

    def visible_nodes(self) -> List[int]:
        """All visible nodes, in navigation-tree pre-order."""
        return [n for n in self.tree.iter_dfs() if n not in self._hidden]

    def component_count(self, node: int) -> int:
        """Distinct citations in ``I(node)`` — the number shown in the UI."""
        return len(distinct_results(self.tree, self.component(node)))

    def containing_root(self, node: int) -> int:
        """Root of the component that contains ``node``.

        For visible nodes this is the node itself.
        """
        if node not in self.tree:
            raise KeyError("node %r is not in the navigation tree" % (node,))
        if node not in self._hidden:
            return node
        for root, members in self._components.items():
            if node in members:
                return root
        raise AssertionError("hidden node %r missing from all components" % (node,))

    # ------------------------------------------------------------------
    # EXPAND (EdgeCut) and BACKTRACK
    # ------------------------------------------------------------------
    def expand(self, node: int, cut: Sequence[Edge], stats: Sequence = ()) -> List[int]:
        """Perform EdgeCut ``cut`` on the component rooted at ``node``.

        Returns the roots of the created components (upper first, then the
        lower roots in cut order) — the set the EdgeCut operation returns
        in the paper.  ``stats`` (a cut plan's component statistics) is
        ignored: the oracle recounts every component from its members.

        Raises:
            ValueError: empty cut, hidden/singleton node, or invalid cut.
        """
        if not cut:
            raise ValueError("an EXPAND action needs a non-empty EdgeCut")
        if node not in self._components:
            raise ValueError("node %r has no expandable component" % (node,))
        component = self._components[node]
        upper, lowers = cut_components(self.tree, component, node, cut)
        self._history.append((dict(self._components), self._hidden))
        del self._components[node]
        if len(upper) > 1:
            self._components[node] = upper
        newly_visible = {node}
        for lower_root, members in lowers.items():
            if len(members) > 1:
                self._components[lower_root] = members
            newly_visible.add(lower_root)
        hidden = set(self._hidden)
        hidden -= newly_visible
        self._hidden = frozenset(hidden)
        return [node] + [child for _, child in cut]

    def backtrack(self) -> bool:
        """Undo the most recent EXPAND; returns False when at initial state."""
        if not self._history:
            return False
        components, hidden = self._history.pop()
        self._components = components
        self._hidden = hidden
        return True

    @property
    def expansions_performed(self) -> int:
        """Number of EXPANDs applied (and undoable via backtrack)."""
        return len(self._history)

    # ------------------------------------------------------------------
    # Visualization (Definition 5)
    # ------------------------------------------------------------------
    def visualize(self) -> List[VisNode]:
        """The embedded visible tree, in pre-order, with counts.

        The visible parent of a node is its nearest visible ancestor in the
        navigation tree.  The walk is an explicit-stack pre-order (children
        pushed reversed so siblings emit left to right): deep MeSH chains
        must not depend on the interpreter recursion limit.
        """
        rows: List[VisNode] = []
        stack: List[Tuple[int, int, int]] = [(self.tree.root, 0, -1)]
        while stack:
            node, depth, parent = stack.pop()
            rows.append(
                VisNode(
                    node=node,
                    label=self.tree.label(node),
                    count=self.component_count(node),
                    expandable=self.is_expandable(node),
                    depth=depth,
                    parent=parent,
                )
            )
            for visible_child in reversed(self._visible_children(node)):
                stack.append((visible_child, depth + 1, node))
        return rows

    def _visible_children(self, node: int) -> List[int]:
        """Nearest visible descendants of a visible node, left to right.

        Hidden nodes are skipped over: the DFS descends through them and
        stops at the first visible node on each downward path.
        """
        found: List[int] = []
        stack = list(reversed(self.tree.children(node)))
        while stack:
            current = stack.pop()
            if current in self._hidden:
                stack.extend(reversed(self.tree.children(current)))
            else:
                found.append(current)
        return found
