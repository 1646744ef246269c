"""The active tree (paper §II, Definitions 4–5).

The active tree is a navigation tree in which every node ``n`` is annotated
with the component ``I(n)``, the (invisible) component subtree rooted at
``n``; non-singleton ``I`` sets are disjoint.  BioNav visualizes only
the nodes that do not appear inside any other node's component, showing
next to each one the distinct-citation count of its component and an
expand hyperlink when the component is expandable.

An EXPAND action performs an EdgeCut on one component, replacing it with
the upper component (same root) and one lower component per cut edge; the
active tree is closed under this operation, and an undo log supports the
BACKTRACK action of the general navigation model (§III).

Each component is held in interval form, and :meth:`ActiveTree.component`
hands it out as a :class:`~repro.core.edgecut.Component`: its root plus
the preorder positions of the subtree roots cut away below it, which are
exactly the nearest visible nodes under the root.  The state is
therefore a map from each visible node to those positions and its
:class:`ComponentStats` (in a pipeline session, from the navigation-tree
artifact and each EXPAND's cut plan; else computed on first read), plus
the sorted list of visible positions, so views cost O(visible rows).
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from dataclasses import dataclass
from itertools import chain
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.core.edgecut import Component
from repro.core.navigation_tree import NavigationTree
from repro.core.probabilities import ProbabilityModel

__all__ = ["VisNode", "ComponentStats", "component_stats", "ActiveTree"]

Edge = Tuple[int, int]


class ComponentStats(NamedTuple):
    """What the interface shows for one component (§II, Figs. 3–4); the
    relevance is None when computed without a probability model."""

    count: int
    relevance: Optional[float]
    expandable: bool


def component_stats(
    component: Component, probs: Optional[ProbabilityModel] = None
) -> ComponentStats:
    """The one computation of :class:`ComponentStats`; the relevance, an
    exactly rounded ``math.fsum`` of EXPLORE mass, depends only on members."""
    relevance = None
    if probs is not None:
        mass = probs.explore_mass
        slices = component.slices()
        relevance = math.fsum(chain.from_iterable(mass[b:e].tolist() for b, e in slices))
    return ComponentStats(len(component.distinct_results()), relevance, len(component) > 1)


@dataclass(frozen=True)
class VisNode:
    """One row of the active-tree visualization (Definition 5).

    Attributes:
        node: navigation-tree node id.
        label: concept label.
        count: distinct citations attached within the node's component.
        expandable: True when a non-singleton component is rooted here
            (the ``>>>`` hyperlink in the paper's interface).
        depth: depth within the *visualized* (embedded visible) tree.
        parent: visible parent node id, or -1 for the root.
    """

    node: int
    label: str
    count: int
    expandable: bool
    depth: int
    parent: int


class ActiveTree:
    """Navigation tree + disjoint component subtrees, closed under EdgeCut."""

    def __init__(self, tree: NavigationTree, root_stats: Optional[ComponentStats] = None):
        self.tree = tree
        # Every visible node -> the excluded positions of its component.
        # Insertion order follows EXPANDs (the expanded root moves to the
        # end, then the revealed roots), which fixes component_roots().
        self._excluded: Dict[int, Tuple[int, ...]] = {tree.root: ()}
        # Visible node -> its component's statistics (absent/None: unknown).
        self._stats: Dict[int, Optional[ComponentStats]] = {tree.root: root_stats}
        self._visible: List[int] = [tree.position(tree.root)]
        # One entry per EXPAND: (root, its index in _excluded, its
        # excluded positions and stats before the cut, the revealed roots).
        self._log: List[Tuple[int, int, Tuple[int, ...], Any, Tuple[int, ...]]] = []

    # ------------------------------------------------------------------
    # Component accessors
    # ------------------------------------------------------------------
    def component(self, node: int) -> Component:
        """``I(node)``, the component rooted at ``node``.

        A singleton component is just ``node``.  Raises KeyError when
        ``node`` is hidden inside another component.
        """
        excluded = self._excluded.get(node)
        if excluded is None:
            if node in self.tree:
                raise KeyError("node %r is hidden inside another component" % (node,))
            raise KeyError("node %r is not in the navigation tree" % (node,))
        return Component(self.tree, node, excluded)

    def component_roots(self) -> List[int]:
        """Roots of all non-singleton components."""
        return [node for node in self._excluded if len(self.component(node)) > 1]

    def is_visible(self, node: int) -> bool:
        """True when the node appears in the visualization."""
        return node in self._excluded

    def is_expandable(self, node: int) -> bool:
        """True when a non-singleton component is rooted at ``node``."""
        return node in self._excluded and len(self.component(node)) > 1

    def visible_nodes(self) -> List[int]:
        """All visible nodes, in navigation-tree pre-order."""
        return self.tree.preorder_array()[self._visible].tolist()

    def stats(self, node: int, probs: Optional[ProbabilityModel] = None) -> ComponentStats:
        """Statistics of ``I(node)``, stored or computed and kept (KeyError
        when hidden); the first read with ``probs`` fills in a None relevance."""
        stats = self._stats.get(node)
        if stats is None or (stats.relevance is None and probs is not None):
            stats = self._stats[node] = component_stats(self.component(node), probs)
        return stats

    def component_count(self, node: int) -> int:
        """Distinct citations in ``I(node)`` — the number shown in the UI."""
        return self.stats(node).count

    def containing_root(self, node: int) -> int:
        """Root of the component that contains ``node``.

        For visible nodes this is the node itself; a hidden node belongs
        to its nearest visible ancestor.
        """
        if node not in self.tree:
            raise KeyError("node %r is not in the navigation tree" % (node,))
        while node not in self._excluded:
            node = self.tree.parent(node)
        return node

    # ------------------------------------------------------------------
    # EXPAND (EdgeCut) and BACKTRACK
    # ------------------------------------------------------------------
    def expand(self, node: int, cut: Sequence[Edge], stats: Sequence = ()) -> List[int]:
        """Perform EdgeCut ``cut`` on the component rooted at ``node``.

        Returns the roots of the created components (upper first, then the
        lower roots in cut order) — the set the EdgeCut operation returns
        in the paper.  ``stats`` are those components' statistics in the
        same order, when known (a cut plan's).

        Raises:
            ValueError: empty cut, hidden/singleton node, or invalid cut.
        """
        if not cut:
            raise ValueError("an EXPAND action needs a non-empty EdgeCut")
        if not self.is_expandable(node):
            raise ValueError("node %r has no expandable component" % (node,))
        excluded = self._excluded
        before = excluded[node]
        upper, lowers = self.component(node).cut(cut)
        index = list(excluded).index(node)
        del excluded[node]
        excluded[node] = upper.excluded
        for lower_root, lower in lowers.items():
            excluded[lower_root] = lower.excluded
            insort(self._visible, lower.begin)
        self._log.append((node, index, before, self._stats.pop(node, None), tuple(lowers)))
        self._stats.update(zip([node, *lowers], stats))
        return [node] + [child for _, child in cut]

    def backtrack(self) -> bool:
        """Undo the most recent EXPAND; returns False when at initial state."""
        if not self._log:
            return False
        node, index, before, before_stats, revealed = self._log.pop()
        for lower_root in revealed:
            del self._excluded[lower_root]
            self._stats.pop(lower_root, None)
            position = self.tree.position(lower_root)
            del self._visible[bisect_left(self._visible, position)]
        del self._excluded[node]
        self._stats[node] = before_stats
        items = list(self._excluded.items())
        items.insert(index, (node, before))
        self._excluded = dict(items)
        return True

    @property
    def expansions_performed(self) -> int:
        """Number of EXPANDs applied (and undoable via backtrack)."""
        return len(self._log)

    # ------------------------------------------------------------------
    # Visualization (Definition 5)
    # ------------------------------------------------------------------
    def visualize(self) -> List[VisNode]:
        """The embedded visible tree, in pre-order, with counts.

        The visible parent of a node is its nearest visible ancestor in the
        navigation tree.  One pass over the sorted visible positions keeps
        the open ancestors on a stack (each with the end of its preorder
        interval) and reads each row's stored :meth:`stats`, so the cost is
        O(visible rows), not O(tree).
        """
        tree = self.tree
        order = tree.preorder_array()
        sizes = tree.subtree_size_array()
        rows: List[VisNode] = []
        open_ends: List[Tuple[int, int]] = []
        for position in self._visible:
            while open_ends and position >= open_ends[-1][0]:
                open_ends.pop()
            node = int(order[position])
            stats = self.stats(node)
            rows.append(
                VisNode(
                    node=node,
                    label=tree.label(node),
                    count=stats.count,
                    expandable=stats.expandable,
                    depth=len(open_ends),
                    parent=open_ends[-1][1] if open_ends else -1,
                )
            )
            open_ends.append((position + int(sizes[position]), node))
        return rows
