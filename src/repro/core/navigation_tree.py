"""Navigation trees (paper §II, Definitions 1–2), array-native.

Given a concept hierarchy and the query result's concept annotations, the
*initial navigation tree* attaches to every concept the list of result
citations associated with it.  Since most concepts end up empty, BioNav
reduces it to the *navigation tree*: the maximum embedding of the initial
tree containing no empty-result nodes (except the root, kept to avoid a
forest), computed over the hierarchy's preorder-encoded positional arrays
(:class:`repro.hierarchy.arrays.HierarchyArrays`).  Embedded preorder is
hierarchy preorder restricted to the kept nodes, so the embedding works
on the kept preorder positions alone: embedded parents come from a walk
up the hierarchy over the still-unresolved kept nodes, and subtree sizes
from one ``searchsorted`` of the hierarchy subtree intervals.  Apart
from the node → position map every tree keeps, the work is O(result rows
+ tree nodes), not O(hierarchy), and no per-node Python objects are
built on the cold path (DESIGN.md §15).

Navigation-tree nodes keep their hierarchy node ids, so labels and
ancestor tests delegate to the hierarchy; only the parent/child
structure is re-wired by the embedding.

The tree is immutable once built and stores only what it cannot derive,
as flat arrays in *embedded preorder* (node ids, parent positions,
subtree sizes, a per-node results-CSR of int32 citation ranks) plus the
node → position map and the sorted result set, the one rank → PMID map;
rank order is PMID order, and children and depths are derived on demand.
``results`` maps a CSR row back to PMIDs, and the cost model
(:class:`repro.core.probabilities.ProbabilityModel`) ingests the buffers
whole via :meth:`NavigationTree.preorder_array` and friends.  A subtree
is a contiguous preorder slice, so its distinct citations are a mark
over the R result ranks set from a slice of the CSR values: that is
:meth:`repro.core.edgecut.Component.distinct_results`, the one component
form (DESIGN.md §16).  ``is_tree_ancestor`` and ``subtree_size`` are
O(1) lookups; ``iter_dfs`` is a contiguous slice.

:meth:`NavigationTree.from_store` embeds a result answered by a corpus
store and :meth:`NavigationTree.from_csr` an annotation CSR (concept rows
of sorted citation ids); both feed the same embedding core.

The original dict-based builder is kept verbatim as
``ReferenceNavigationTree`` in ``tests/oracles/navigation_tree_reference.py``,
the oracle the equivalence suite pins this implementation against.
"""

from __future__ import annotations

import operator
from typing import TYPE_CHECKING, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.hierarchy.concept import ConceptHierarchy

if TYPE_CHECKING:  # annotation only
    from repro.core.edgecut import Component
    from repro.substrate.store import MmapStore

__all__ = ["NavigationTree"]

Edge = Tuple[int, int]


def _freeze(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def _window_positions(
    hierarchy: ConceptHierarchy, root: int, concepts: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Hierarchy preorder positions of ``concepts`` and which lie in
    ``root``'s window; ids outside the hierarchy lie in no window."""
    arrays = hierarchy.arrays()
    valid = (concepts >= 0) & (concepts < len(hierarchy))
    positions = arrays.positions[np.where(valid, concepts, 0)].astype(np.int64)
    begin = int(arrays.positions[root])
    inside = valid & (positions >= begin)
    inside &= positions < begin + int(arrays.subtree_sizes[root])
    return positions, inside


def _stable_sort(keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(sorted keys, stable argsort)`` of non-negative integer keys.

    One plain sort of the distinct composite keys ``key * n + index``
    (which must fit in int64): several times faster than a stable
    argsort, with the same order.
    """
    n = max(len(keys), 1)
    return np.divmod(np.sort(keys * n + np.arange(len(keys))), n)


class NavigationTree:
    """The maximum embedding of the initial navigation tree.

    Attributes:
        hierarchy: the underlying concept hierarchy.
        root: hierarchy node id of the tree root.
    """

    def __init__(
        self,
        hierarchy: ConceptHierarchy,
        root: int,
        order: np.ndarray,
        eparent: np.ndarray,
        esize: np.ndarray,
        res_off: np.ndarray,
        res_val: np.ndarray,
        result_pmids: np.ndarray,
        pos_of: np.ndarray,
    ) -> None:
        """Adopt embedded-preorder arrays (see the module docstring).

        :meth:`from_csr` and :meth:`from_store` compute them with the
        vectorized embedding; ``eparent`` holds each node's embedded
        parent position (-1 at the root), ``res_val`` ranks into the
        sorted ``result_pmids``, and ``pos_of`` maps every hierarchy node
        id to its embedded position (-1: not kept).  All are frozen.
        """
        self.hierarchy = hierarchy
        self.root = root
        self._order = _freeze(order)
        self._eparent = _freeze(eparent)
        self._esize = _freeze(esize)
        self._res_off = _freeze(res_off)
        self._res_val = _freeze(res_val)
        self._result_pmids = _freeze(result_pmids)
        self._pos_of = _freeze(pos_of)

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
    ) -> "NavigationTree":
        """Navigation tree for a result set answered by a corpus store.

        Args:
            hierarchy: the concept hierarchy.
            store: the corpus :class:`~repro.substrate.store.MmapStore`;
                its ``annotation_rows`` gathers the result's citation →
                concept rows, so the tree builds without any
                per-citation Python objects.
            pmids: the query result's citation ids; duplicates and ids
                not in the store are ignored.
            root: subtree to embed within; defaults to the hierarchy root.

        The ``(position, rank)`` pairs (a rank indexes the store's sorted
        result) are sorted once, stably, by hierarchy preorder position:
        ranks ascend in the gather, so the results CSR comes out in
        embedded preorder with each row sorted.  Concepts outside the
        root's window are dropped.
        """
        if root is None:
            root = hierarchy.root
        result, lengths, concepts = store.annotation_rows(list(pmids))
        positions, inside = _window_positions(hierarchy, root, concepts)
        positions, by_position = _stable_sort(positions[inside])
        values = np.repeat(np.arange(len(result), dtype=np.int32), lengths)[inside][by_position]
        starts = np.flatnonzero(np.diff(positions, prepend=-1))
        return cls._embed(
            hierarchy, root, positions[starts], np.append(starts, len(values)), values, result
        )

    @classmethod
    def from_csr(
        cls,
        hierarchy: ConceptHierarchy,
        concepts: np.ndarray,
        offsets: np.ndarray,
        values: np.ndarray,
        root: Optional[int] = None,
    ) -> "NavigationTree":
        """Compute the navigation tree from the result's annotation CSR.

        Args:
            hierarchy: the concept hierarchy.
            concepts: the annotated concept ids, each a hierarchy node id
                (others are dropped); a repeated id keeps its first row.
            offsets: CSR offsets, one row per entry of ``concepts``.
            values: CSR values: row ``i`` holds concept ``concepts[i]``'s
                citation ids, sorted.
            root: subtree to embed within; defaults to the hierarchy root.

        Presence in ``concepts`` marks a node annotated (kept) even when
        its row is empty; empty-result concepts absent from it are
        spliced out per Definition 2, and the root is always kept.  The
        rows are put in hierarchy preorder, their ids ranked among the
        kept rows' ids, and handed to the same embedding as :meth:`from_store`.
        """
        if root is None:
            root = hierarchy.root
        concepts = np.asarray(concepts, dtype=np.int64)
        offsets = np.asarray(offsets, dtype=np.int64)
        values = np.asarray(values, dtype=np.int64)
        positions, inside = _window_positions(hierarchy, root, concepts)
        kpos, first = np.unique(positions[inside], return_index=True)
        rows = np.flatnonzero(inside)[first]
        begins = offsets[rows]
        lengths = offsets[rows + 1] - begins
        res_off = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum(lengths, out=res_off[1:])
        gather = np.repeat(begins - res_off[:-1], lengths)
        gather += np.arange(len(gather))
        result, ranks = np.unique(values[gather], return_inverse=True)
        return cls._embed(hierarchy, root, kpos, res_off, ranks.astype(np.int32), result)

    @classmethod
    def _embed(
        cls,
        hierarchy: ConceptHierarchy,
        root: int,
        kpos: np.ndarray,
        res_off: np.ndarray,
        res_val: np.ndarray,
        result_pmids: np.ndarray,
    ) -> "NavigationTree":
        """The maximum embedding of the annotated positions ``kpos``.

        ``kpos`` are distinct hierarchy preorder positions inside the
        root's window, ascending, and ``(res_off, res_val)`` is their
        results CSR (ranks into ``result_pmids``) in the same order.  The
        root is added with an empty row when it is not annotated.  Embedded
        preorder is hierarchy preorder restricted to the kept set, so every
        output but the node → position map is computed over the k kept nodes.
        """
        arrays = hierarchy.arrays()
        parents = arrays.parents
        begin = int(arrays.positions[root])
        if not (len(kpos) and kpos[0] == begin):  # the root survives every embedding
            kpos = np.concatenate(([begin], kpos))
            res_off = np.concatenate(([0], res_off))
        order = arrays.preorder[kpos].astype(np.int64)
        k = len(order)
        pos_of = np.full(len(hierarchy), -1, dtype=np.int64)
        pos_of[order] = np.arange(k, dtype=np.int64)

        # Embedded parent: walk each kept node's hierarchy ancestors until
        # one is kept.  Every round moves the unresolved nodes up one
        # level, so at most depth rounds run, each over fewer nodes; the
        # root is kept, so no walk leaves the window.
        eparent = np.full(k, -1, dtype=np.int64)
        pending = np.arange(1, k)
        ancestors = parents[order[1:]]
        while len(pending):
            hit = pos_of[ancestors]
            eparent[pending] = hit  # -1 until a kept ancestor is hit
            missed = hit < 0
            pending, ancestors = pending[missed], parents[ancestors[missed]]

        # Embedded subtree size = kept positions inside the hierarchy
        # subtree's preorder interval.
        esize = np.searchsorted(kpos, kpos + arrays.subtree_sizes[order]) - np.arange(k)
        return cls(hierarchy, root, order, eparent, esize, res_off, res_val, result_pmids, pos_of)

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._order)

    def __contains__(self, node: int) -> bool:
        return self._position_of(node) >= 0

    def nodes(self) -> List[int]:
        """All node ids kept by the embedding, in embedded preorder."""
        return self._order.tolist()

    def parent(self, node: int) -> int:
        """Embedded parent of ``node`` (-1 for the root)."""
        position = int(self._eparent[self._require(node)])
        return int(self._order[position]) if position >= 0 else -1

    def children(self, node: int) -> Sequence[int]:
        """Embedded-tree children of ``node``, left to right: the nodes
        of its preorder interval whose parent position is its own."""
        position = self._require(node)
        below = slice(position + 1, position + int(self._esize[position]))
        return tuple(self._order[below][self._eparent[below] == position].tolist())

    def is_leaf(self, node: int) -> bool:
        """True when ``node`` has no embedded children."""
        return int(self._esize[self._require(node)]) == 1

    def label(self, node: int) -> str:
        """Concept label of ``node`` (delegates to the hierarchy)."""
        self._require(node)
        return self.hierarchy.label(node)

    def edges(self) -> Iterator[Edge]:
        """All (parent, child) edges of the embedded tree, children in preorder."""
        return zip(self._order[self._eparent[1:]].tolist(), self._order[1:].tolist())

    def iter_dfs(self, start: Optional[int] = None) -> Iterator[int]:
        """Pre-order traversal of the embedded tree.

        Served from the stored preorder: the subtree of ``start`` is a
        contiguous slice of it, so iteration does no stack bookkeeping.
        """
        if start is None:
            start = self.root
        position = self._require(start)
        end = position + int(self._esize[position])
        return iter(self._order[position:end].tolist())

    def subtree_size(self, node: int) -> int:
        """Number of embedded-tree nodes in the subtree of ``node`` (O(1))."""
        return int(self._esize[self._require(node)])

    def is_tree_ancestor(self, ancestor: int, node: int) -> bool:
        """Ancestor test within the embedded tree (a node is its own ancestor).

        O(1) via preorder intervals: ``ancestor`` spans a contiguous
        preorder range, and ``node`` is a descendant iff its preorder
        position falls inside it.
        """
        begin = self._require(ancestor)
        position = self._require(node)
        return begin <= position < begin + int(self._esize[begin])

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def results(self, node: int) -> np.ndarray:
        """PMIDs attached directly to ``node`` (L(n)), sorted.

        The node's results-CSR row mapped to PMIDs (read-only).  A
        subtree's are ``Component(tree, node).distinct_results()``.
        """
        position = self._require(node)
        row = self._res_val[self._res_off[position] : self._res_off[position + 1]]
        return _freeze(self._result_pmids[row])

    # ------------------------------------------------------------------
    # Array views (the cost-model ingestion seam)
    # ------------------------------------------------------------------
    def preorder_array(self) -> np.ndarray:
        """Node ids in embedded preorder (``int64``, read-only)."""
        return self._order

    def subtree_size_array(self) -> np.ndarray:
        """Embedded subtree sizes per preorder position (read-only)."""
        return self._esize

    def result_offsets_array(self) -> np.ndarray:
        """Results-CSR offsets per preorder position (read-only)."""
        return self._res_off

    def result_values_array(self) -> np.ndarray:
        """Results-CSR values: per-node sorted citation ranks (int32, read-only)."""
        return self._res_val

    def result_pmids(self) -> np.ndarray:
        """The query's sorted result set, the rank → PMID map (read-only)."""
        return self._result_pmids

    def position(self, node: int) -> int:
        """Embedded-preorder position of ``node`` (``KeyError`` if not kept)."""
        return self._require(node)

    def positions(self, nodes: Sequence[int]) -> np.ndarray:
        """Embedded-preorder position of each hierarchy node id (-1: not kept)."""
        return self._pos_of[np.asarray(nodes, dtype=np.int64)]

    def component_arrays(
        self, component: "Component"
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """A connected component as preorder arrays (fresh copies).

        Returns ``(positions, parents, sizes)``: the members' embedded
        preorder positions, sorted — which is the component's own
        preorder, root first and each sibling group left to right — then
        per member the index of its parent within ``positions`` (-1 for
        the component root) and its subtree's member count: the members
        inside its embedded preorder interval.  A member's index is its
        offset from the root minus the excluded subtrees before it.
        """
        positions = component.positions()
        excluded = np.asarray(component.excluded, dtype=np.int64)
        skipped = np.append(0, np.cumsum(self._esize[excluded])) + component.begin
        at = np.stack((self._eparent[positions], positions + self._esize[positions]))
        parents, ends = at - skipped[np.searchsorted(excluded, at)]
        parents[0] = -1
        return positions, parents, ends - np.arange(len(positions))

    # ------------------------------------------------------------------
    # Statistics (Table I columns)
    # ------------------------------------------------------------------
    def size(self) -> int:
        """Navigation tree size (node count, Table I)."""
        return len(self._order)

    def max_width(self) -> int:
        """Maximum number of nodes at one embedded-tree depth (Table I)."""
        return int(np.bincount(self.depth_array()).max())

    def height(self) -> int:
        """Longest root-to-leaf edge count in the embedded tree (Table I)."""
        return int(self.depth_array().max())

    def citations_with_duplicates(self) -> int:
        """Total attachment count, duplicates included (Table I).

        Each citation counts once per concept it is attached to.
        """
        return len(self._res_val)

    def tree_depth(self, node: int) -> int:
        """Depth of ``node`` in the embedded tree (root = 0), via :meth:`depth_array`."""
        return int(self.depth_array()[self._require(node)])

    def depth_array(self) -> np.ndarray:
        """Embedded depth per preorder position (root = 0), fresh.

        Pointer jumping: ``depth[i]`` counts the edges from ``i`` to
        ``jump[i]``, and doubling the jumps reaches the root in
        log2(height) rounds.
        """
        depth = (self._eparent >= 0).astype(np.int64)
        jump = np.maximum(self._eparent, 0)
        while jump.any():
            depth = depth + depth[jump]
            jump = jump[jump]
        return depth

    # ------------------------------------------------------------------
    def _position_of(self, node: int) -> int:
        try:
            index = operator.index(node)
        except TypeError:
            return -1
        if not 0 <= index < len(self._pos_of):
            return -1
        return int(self._pos_of[index])

    def _require(self, node: int) -> int:
        """``node``'s preorder position; a bare ``KeyError(node)`` if not kept."""
        position = self._position_of(node)
        if position < 0:
            raise KeyError(node)
        return position

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return "NavigationTree(%d nodes, %d attachments)" % (
            len(self),
            len(self._res_val),
        )
