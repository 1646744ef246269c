"""EdgeCuts over navigation-tree components (paper §II, Definition 3).

An EdgeCut of a tree is any set of its edges; removing them splits the tree
into one *upper* component (containing the root) and one *lower* component
per cut edge.  A cut is **valid** when no two of its edges lie on the same
root-to-leaf path — invalid cuts would reveal a node together with one of
its descendants as siblings, which the paper rules out as unintuitive.

Every component an EdgeCut produces is a subtree of the navigation tree
minus some lower subtrees, so a :class:`Component` stores exactly that:
its root and the sorted preorder positions of the subtree roots cut away
below it.  Its members are the contiguous preorder slices between those
cut-away intervals, so membership, size, citation unions and the cut
itself are interval arithmetic on the tree's preorder and subtree-size
arrays and never build the member set (DESIGN.md §16).  It is the one
component form: the active tree, the probability model, every solver and
the pipeline's cut stage take a :class:`Component`, and a node's subtree
is ``Component(tree, node)``.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

import numpy as np

from repro.core.navigation_tree import NavigationTree

__all__ = ["Component", "is_valid_edgecut", "component_children", "rank_by_subtree_results",
           "subtree_result_counts"]

Edge = Tuple[int, int]
#: ``(root, excluded)``: a component's identity, independent of the tree
#: object (cut-stage keys use it).
ComponentKey = Tuple[int, Tuple[int, ...]]


class Component:
    """A connected component of a navigation tree, as preorder intervals.

    Attributes:
        tree: the navigation tree.
        root: node id of the component root.
        excluded: sorted embedded-preorder positions of the subtree roots
            cut away below ``root``; their subtrees are pairwise disjoint
            and lie strictly inside the root's subtree.

    The component behaves as a read-only collection of node ids (``len``,
    ``in`` and iteration in preorder); :meth:`positions` and
    :meth:`distinct_results` read it against the tree's arrays.
    """

    __slots__ = ("tree", "root", "excluded", "begin", "end")

    def __init__(self, tree: NavigationTree, root: int, excluded: Tuple[int, ...] = ()):
        self.tree = tree
        self.root = root
        self.excluded = excluded
        self.begin = tree.position(root)
        self.end = self.begin + int(tree.subtree_size_array()[self.begin])

    @property
    def key(self) -> ComponentKey:
        """``(root, excluded)``: equal keys name equal member sets."""
        return (self.root, self.excluded)

    def slices(self) -> List[Tuple[int, int]]:
        """The members as non-empty ``[begin, end)`` preorder slices."""
        sizes = self.tree.subtree_size_array()
        out: List[Tuple[int, int]] = []
        cursor = self.begin
        for position in self.excluded:
            if position > cursor:
                out.append((cursor, position))
            cursor = position + int(sizes[position])
        if self.end > cursor:
            out.append((cursor, self.end))
        return out

    def positions(self) -> np.ndarray:
        """Sorted embedded-preorder positions of the members."""
        return np.concatenate(
            [np.arange(begin, end, dtype=np.int64) for begin, end in self.slices()]
        )

    def distinct_results(self) -> np.ndarray:
        """Sorted distinct PMIDs attached anywhere in the component: a
        mark over the tree's R result ranks, set with no sort."""
        offsets = self.tree.result_offsets_array()
        values = self.tree.result_values_array()
        mark = np.zeros(len(self.tree.result_pmids()), dtype=bool)
        for begin, end in self.slices():
            mark[values[offsets[begin] : offsets[end]]] = True
        return self.tree.result_pmids()[np.flatnonzero(mark)]

    def cut(self, edges: Sequence[Edge]) -> Tuple["Component", Dict[int, "Component"]]:
        """Apply a valid EdgeCut: ``(upper, {lower_root: lower})``.

        A lower component keeps the cut-away positions inside its subtree;
        the upper one keeps the rest plus one new position per cut edge.

        Raises:
            ValueError: if the cut is not a valid EdgeCut of the component.
        """
        if not is_valid_edgecut(self.tree, self, edges):
            raise ValueError("not a valid EdgeCut of this component: %r" % (edges,))
        sizes = self.tree.subtree_size_array()
        kept = list(self.excluded)
        lowers: Dict[int, Component] = {}
        for _, child in edges:
            begin = self.tree.position(child)
            low = bisect_left(kept, begin)
            high = bisect_left(kept, begin + int(sizes[begin]))
            lowers[child] = Component(self.tree, child, tuple(kept[low:high]))
            kept[low:high] = [begin]
        return Component(self.tree, self.root, tuple(kept)), lowers

    def __len__(self) -> int:
        sizes = self.tree.subtree_size_array()
        return self.end - self.begin - sum(int(sizes[p]) for p in self.excluded)

    def __contains__(self, node: object) -> bool:
        try:
            position = self.tree.position(node)  # type: ignore[arg-type]
        except KeyError:
            return False
        if not self.begin <= position < self.end:
            return False
        index = bisect_right(self.excluded, position) - 1
        if index < 0:
            return True
        cut = self.excluded[index]
        return position >= cut + int(self.tree.subtree_size_array()[cut])

    def __iter__(self) -> Iterator[int]:
        order = self.tree.preorder_array()
        for begin, end in self.slices():
            yield from order[begin:end].tolist()

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return "Component(root=%r, excluded=%r)" % (self.root, self.excluded)


def component_children(
    tree: NavigationTree, component: Component, node: int
) -> List[int]:
    """Children of ``node`` that lie within ``component``."""
    return [child for child in tree.children(node) if child in component]


def subtree_result_counts(tree: NavigationTree, nodes: Sequence[int]) -> np.ndarray:
    """Distinct citations in each of ``nodes``' whole subtrees, in order:
    one ``np.unique`` over (node ordinal, rank) keys of span R counts all."""
    offsets = tree.result_offsets_array()
    begins = tree.positions(nodes)
    starts = offsets[begins]
    lengths = offsets[begins + tree.subtree_size_array()[begins]] - starts
    ranks = tree.result_values_array()[
        np.repeat(starts - np.cumsum(lengths) + lengths, lengths) + np.arange(lengths.sum())
    ]
    span = len(tree.result_pmids())
    keys = np.unique(np.repeat(np.arange(len(nodes)), lengths) * span + ranks)
    return np.bincount(keys // span, minlength=len(nodes))


def rank_by_subtree_results(tree: NavigationTree, nodes: Sequence[int]) -> List[int]:
    """``nodes`` by descending distinct citations in their whole subtrees,
    ties to the smaller id."""
    ids = np.asarray(nodes, dtype=np.int64)
    return ids[np.lexsort((ids, -subtree_result_counts(tree, nodes)))].tolist()


def is_valid_edgecut(
    tree: NavigationTree, component: Component, edges: Iterable[Edge]
) -> bool:
    """Check Definition 3 for a cut of the component subtree.

    Requirements:
      * every edge is an edge of the component subtree, and
      * no cut edge's child endpoint is an ancestor of another cut edge's
        child endpoint (which is equivalent to no two edges sharing a
        root-to-leaf path).
    """
    edge_list = list(edges)
    child_endpoints: List[int] = []
    for parent, child in edge_list:
        if parent not in component or child not in component:
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
