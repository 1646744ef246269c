"""The legacy dict-based navigation-tree builder, retained as a test oracle.

This is the original per-node implementation of the paper's §II maximum
embedding: annotations become a ``Dict[int, FrozenSet[int]]``, the
embedding walks the hierarchy with an explicit ``(node, kept_ancestor)``
stack, and every structural index (preorder, depth, subtree size) is a
per-node Python dict filled by a second traversal.  It is kept —
verbatim — for two purposes:

* the property suite (``tests/test_navigation_tree_equivalence.py``)
  asserts the array-native :class:`repro.core.navigation_tree.NavigationTree`
  produces a **bit-identical** tree (same nodes in the same preorder,
  same parent/children maps, same per-node result sets, same subtree
  sizes, and the same downstream Opt-EdgeCut costs) on randomized
  hierarchies × result sets, and
* ``benchmarks/bench_coldpath.py`` measures the cold-build speedup of
  the vectorized path over this one.

Its preorder-array and position accessors are built from its own
dicts, so a ``ProbabilityModel`` over this tree checks the array-native
tree's buffers against an independent construction.

Do not use this class in production code paths; it exists to keep the
vectorized builder honest.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, FrozenSet, Iterable, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from repro.hierarchy.concept import ConceptHierarchy

if TYPE_CHECKING:  # annotation only
    from repro.substrate.store import MmapStore

__all__ = ["ReferenceNavigationTree"]

Edge = Tuple[int, int]


class ReferenceNavigationTree:
    """The maximum embedding, built through per-node dicts (oracle).

    Attributes:
        hierarchy: the underlying concept hierarchy.
        root: hierarchy node id of the tree root.
    """

    def __init__(
        self,
        hierarchy: ConceptHierarchy,
        parent: Dict[int, int],
        children: Dict[int, List[int]],
        results: Dict[int, FrozenSet[int]],
        root: int,
    ):
        self.hierarchy = hierarchy
        self.root = root
        self._parent = parent
        self._children = children
        self._results = results
        self._subtree_results: Dict[int, FrozenSet[int]] = {}
        # Positional indices, one preorder pass (the tree never mutates):
        # depth, preorder position, and subtree size per node.  Preorder
        # numbers each subtree contiguously, so the subtree of ``n`` is
        # exactly ``_preorder[_position[n] : _position[n] + _subtree_size[n]]``
        # and ancestor tests reduce to interval containment.
        self._preorder: List[int] = []
        self._depth: Dict[int, int] = {}
        self._position: Dict[int, int] = {}
        self._subtree_size: Dict[int, int] = {}
        stack: List[Tuple[int, int]] = [(root, 0)]
        while stack:
            node, depth = stack.pop()
            self._depth[node] = depth
            self._position[node] = len(self._preorder)
            self._preorder.append(node)
            stack.extend((child, depth + 1) for child in reversed(children[node]))
        for node in reversed(self._preorder):
            self._subtree_size[node] = 1 + sum(
                self._subtree_size[child] for child in children[node]
            )

    # ------------------------------------------------------------------
    # Construction (maximum embedding)
    # ------------------------------------------------------------------
    @classmethod
    def from_store(
        cls,
        hierarchy: ConceptHierarchy,
        store: "MmapStore",
        pmids: Iterable[int],
        root: Optional[int] = None,
    ) -> "ReferenceNavigationTree":
        """Navigation tree for a result set answered by a corpus store.

        The annotations come one citation at a time from
        ``store.concepts_of``, not from the CSR gather the array-native
        tree uses.
        """
        annotations: Dict[int, Set[int]] = {}
        stored = set(store.pmids())
        for pmid in pmids:
            if pmid in stored:
                for concept in store.concepts_of(pmid):
                    annotations.setdefault(concept, set()).add(pmid)
        return cls.build(hierarchy, annotations, root=root)

    @classmethod
    def build(
        cls,
        hierarchy: ConceptHierarchy,
        annotations: Mapping[int, Iterable[int]],
        root: Optional[int] = None,
    ) -> "ReferenceNavigationTree":
        """Compute the navigation tree for one query result.

        Empty-result concepts are spliced out per Definition 2; the root is
        always kept.
        """
        if root is None:
            root = hierarchy.root
        results = {
            node: frozenset(ids)
            for node, ids in annotations.items()
            if ids
        }
        parent: Dict[int, int] = {root: -1}
        children: Dict[int, List[int]] = {root: []}

        # Iterative embedding (deep kept chains must not hit the recursion
        # limit): each stack entry pairs a hierarchy node with the nearest
        # kept ancestor it competes under.  A kept node becomes the
        # ancestor for its own descendants; a spliced-out node passes its
        # ancestor through.  Children are pushed reversed so siblings are
        # attached left to right.
        stack: List[Tuple[int, int]] = [
            (node, root) for node in reversed(hierarchy.children(root))
        ]
        while stack:
            node, kept_ancestor = stack.pop()
            if node in results:
                parent[node] = kept_ancestor
                children[kept_ancestor].append(node)
                children[node] = []
                kept_ancestor = node
            stack.extend(
                (child, kept_ancestor)
                for child in reversed(hierarchy.children(node))
            )
        kept_results = {
            node: results.get(node, frozenset()) for node in parent
        }
        return cls(hierarchy, parent, children, kept_results, root)

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._parent)

    def __contains__(self, node: int) -> bool:
        return node in self._parent

    def nodes(self) -> List[int]:
        """All node ids kept by the embedding."""
        return list(self._parent)

    def parent(self, node: int) -> int:
        """Embedded parent of ``node`` (-1 for the root)."""
        return self._parent[node]

    def children(self, node: int) -> Sequence[int]:
        """Embedded-tree children of ``node``, left to right."""
        return tuple(self._children[node])

    def is_leaf(self, node: int) -> bool:
        """True when ``node`` has no embedded children."""
        return not self._children[node]

    def label(self, node: int) -> str:
        """Concept label of ``node`` (delegates to the hierarchy)."""
        self._require(node)
        return self.hierarchy.label(node)

    def edges(self) -> Iterator[Edge]:
        """All (parent, child) edges of the embedded tree."""
        for node, kids in self._children.items():
            for child in kids:
                yield (node, child)

    def iter_dfs(self, start: Optional[int] = None) -> Iterator[int]:
        """Pre-order traversal of the embedded tree."""
        if start is None:
            start = self.root
        self._require(start)
        begin = self._position[start]
        return iter(self._preorder[begin : begin + self._subtree_size[start]])

    def subtree_nodes(self, node: int) -> FrozenSet[int]:
        """All embedded-tree nodes in the subtree rooted at ``node``."""
        self._require(node)
        begin = self._position[node]
        return frozenset(self._preorder[begin : begin + self._subtree_size[node]])

    def subtree_size(self, node: int) -> int:
        """Number of embedded-tree nodes in the subtree of ``node`` (O(1))."""
        self._require(node)
        return self._subtree_size[node]

    def is_tree_ancestor(self, ancestor: int, node: int) -> bool:
        """Ancestor test within the embedded tree (a node is its own ancestor)."""
        self._require(ancestor)
        self._require(node)
        begin = self._position[ancestor]
        return begin <= self._position[node] < begin + self._subtree_size[ancestor]

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def results(self, node: int) -> FrozenSet[int]:
        """Citations attached directly to ``node`` (L(n))."""
        self._require(node)
        return self._results[node]

    def subtree_results(self, node: int) -> FrozenSet[int]:
        """Distinct citations attached anywhere in the subtree of ``node``."""
        self._require(node)
        cached = self._subtree_results.get(node)
        if cached is not None:
            return cached
        # Iterative post-order accumulation (reversed preorder slice) to
        # avoid recursion limits.
        begin = self._position[node]
        order = self._preorder[begin : begin + self._subtree_size[node]]
        for n in reversed(order):
            if n in self._subtree_results:
                continue
            accumulated: Set[int] = set(self._results[n])
            for child in self._children[n]:
                accumulated.update(self._subtree_results[child])
            self._subtree_results[n] = frozenset(accumulated)
        return self._subtree_results[node]

    def all_results(self) -> FrozenSet[int]:
        """All distinct citations in the tree."""
        return self.subtree_results(self.root)

    # ------------------------------------------------------------------
    # Preorder arrays (the buffers ProbabilityModel ingests)
    # ------------------------------------------------------------------
    def position(self, node: int) -> int:
        """Embedded-preorder position of ``node`` (``KeyError`` if absent)."""
        return self._position[node]

    def positions(self, nodes: Sequence[int]) -> np.ndarray:
        """Embedded-preorder position of each node id (-1: not kept)."""
        return np.asarray(
            [self._position.get(n, -1) for n in nodes], dtype=np.int64
        )

    def preorder_array(self) -> np.ndarray:
        """Node ids in embedded preorder (``int64``)."""
        return np.asarray(self._preorder, dtype=np.int64)

    def subtree_size_array(self) -> np.ndarray:
        """Embedded subtree sizes per preorder position."""
        return np.asarray(
            [self._subtree_size[n] for n in self._preorder], dtype=np.int64
        )

    def result_offsets_array(self) -> np.ndarray:
        """Results-CSR offsets per preorder position."""
        offsets = [0]
        for node in self._preorder:
            offsets.append(offsets[-1] + len(self._results[node]))
        return np.asarray(offsets, dtype=np.int64)

    def result_pmids(self) -> np.ndarray:
        """Every attached citation id, sorted: the rank → id map."""
        return np.asarray(sorted(self.all_results()), dtype=np.int64)

    def result_values_array(self) -> np.ndarray:
        """Results-CSR values: per-node sorted citation ranks, each an
        index into :meth:`result_pmids`."""
        rank = {pmid: index for index, pmid in enumerate(sorted(self.all_results()))}
        return np.asarray(
            [rank[c] for node in self._preorder for c in sorted(self._results[node])],
            dtype=np.int32,
        )

    # ------------------------------------------------------------------
    # Statistics (Table I columns)
    # ------------------------------------------------------------------
    def size(self) -> int:
        """Navigation tree size (node count, Table I)."""
        return len(self._parent)

    def max_width(self) -> int:
        """Maximum number of nodes at one embedded-tree depth (Table I)."""
        counts: Dict[int, int] = {}
        for depth in self._depth.values():
            counts[depth] = counts.get(depth, 0) + 1
        return max(counts.values())

    def height(self) -> int:
        """Longest root-to-leaf edge count in the embedded tree (Table I)."""
        return max(self._depth.values())

    def citations_with_duplicates(self) -> int:
        """Total attachment count, duplicates included (Table I)."""
        return sum(len(ids) for ids in self._results.values())

    def tree_depth(self, node: int) -> int:
        """Depth of ``node`` in the embedded tree (root = 0, O(1))."""
        self._require(node)
        return self._depth[node]

    # ------------------------------------------------------------------
    def _require(self, node: int) -> None:
        if node not in self._parent:
            raise KeyError("node %r is not in the navigation tree" % (node,))

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return "ReferenceNavigationTree(%d nodes, %d distinct citations)" % (
            len(self),
            len(self.all_results()),
        )
