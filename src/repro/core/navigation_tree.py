"""Navigation trees (paper §II, Definitions 1–2), array-native.

Given a concept hierarchy and the query result's concept annotations, the
*initial navigation tree* attaches to every concept the list of result
citations associated with it.  Since most concepts end up empty, BioNav
reduces it to the *navigation tree*: the maximum embedding of the initial
tree containing no empty-result nodes (except the root, kept to avoid a
forest), computed over the hierarchy's preorder-encoded positional arrays
(:class:`repro.hierarchy.arrays.HierarchyArrays`) — annotated concepts
become a boolean mask over the root's preorder interval, the nearest kept
ancestor of every node resolves with one array pass per tree level, and
embedded subtree sizes fall out of a cumulative sum of the kept mask.
No per-node Python objects are built on the cold path; at MEDLINE scale
this replaces a ~240ms dict-based construction with a few milliseconds
of whole-array passes (DESIGN.md §15).

Navigation-tree nodes keep their hierarchy node ids, so labels, depths
and ancestor tests delegate to the hierarchy; only the parent/child
structure is re-wired by the embedding.

The tree is immutable once built and stores its structure as flat arrays
in *embedded preorder*: node ids, parents, children-CSR, depths, subtree
sizes, and a per-node results-CSR of sorted citation ids.  ``results``
hands out read-only CSR slices, and the cost model
(:class:`repro.core.probabilities.ProbabilityModel`) ingests the buffers
whole via :meth:`NavigationTree.preorder_array` and friends.  A subtree
is a contiguous preorder slice, so its distinct citations are one
``np.unique`` over a slice of the CSR values: that is
:meth:`repro.core.edgecut.Component.distinct_results`, the one component
form (DESIGN.md §16).  ``tree_depth``, ``is_tree_ancestor`` and
``subtree_size`` remain O(1) lookups; ``iter_dfs`` is a contiguous slice.

:meth:`NavigationTree.from_csr` embeds an annotation CSR (concept rows
of sorted citation ids); :meth:`NavigationTree.from_store` gathers that
CSR from a corpus store.

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
        edepth: np.ndarray,
        esize: np.ndarray,
        child_off: np.ndarray,
        child_val: np.ndarray,
        res_off: np.ndarray,
        res_val: np.ndarray,
    ) -> None:
        """Adopt embedded-preorder arrays (see the module docstring).

        :meth:`from_csr` and :meth:`from_store` compute them with the
        vectorized embedding; the arrays are frozen on adoption.
        """
        self.hierarchy = hierarchy
        self.root = root
        self._order = _freeze(order)
        self._eparent = _freeze(eparent)
        self._edepth = _freeze(edepth)
        self._esize = _freeze(esize)
        self._child_off = _freeze(child_off)
        self._child_val = _freeze(child_val)
        self._res_off = _freeze(res_off)
        self._res_val = _freeze(res_val)
        pos_of = np.full(len(hierarchy), -1, dtype=np.int64)
        pos_of[order] = np.arange(len(order), dtype=np.int64)
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
                its ``annotation_arrays`` provides the association
                restriction directly in CSR form, so the tree builds
                without any per-citation Python objects.
            pmids: the query result's citation ids.
            root: subtree to embed within; defaults to the hierarchy root.
        """
        concepts, offsets, values = store.annotation_arrays(list(pmids))
        size = len(hierarchy)
        if len(concepts) and (
            int(concepts[0]) < 0 or int(concepts[-1]) >= size
        ):
            inside = (concepts >= 0) & (concepts < size)
            keep = np.repeat(inside, np.diff(offsets))
            values = values[keep]
            lengths = np.diff(offsets)[inside]
            concepts = concepts[inside]
            offsets = np.zeros(len(concepts) + 1, dtype=np.int64)
            np.cumsum(lengths, out=offsets[1:])
        return cls.from_csr(hierarchy, concepts, offsets, values, root)

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
            concepts: the annotated concept ids, sorted ascending, each a
                hierarchy node id.
            offsets: CSR offsets, one row per entry of ``concepts``.
            values: CSR values: row ``i`` holds concept ``concepts[i]``'s
                citation ids, sorted.
            root: subtree to embed within; defaults to the hierarchy root.

        Presence in ``concepts`` marks a node annotated (kept) even when
        its row is empty; empty-result concepts absent from it are
        spliced out per Definition 2, and the root is always kept.

        Everything below runs in *hierarchy preorder position* space,
        restricted to the root's contiguous preorder window: the kept
        set becomes a boolean mask, nearest-kept-ancestor links resolve
        level-by-level (one vectorized pass per tree level, ~11 for
        MeSH), and embedded subtree sizes are differences of the kept
        mask's cumulative sum over hierarchy subtree intervals.
        """
        if root is None:
            root = hierarchy.root
        concepts = np.asarray(concepts, dtype=np.int64)
        res_off = np.asarray(offsets, dtype=np.int64)
        res_val = np.asarray(values, dtype=np.int64)
        arrays = hierarchy.arrays()
        positions = arrays.positions
        preorder = arrays.preorder
        hsizes = arrays.subtree_sizes
        hdepths = arrays.depths
        hparents = arrays.parents

        window_begin = int(positions[root])
        window_len = int(hsizes[root])
        win_nodes = preorder[window_begin : window_begin + window_len]

        kept = np.zeros(window_len, dtype=bool)
        if len(concepts):
            cpos = positions[concepts].astype(np.int64) - window_begin
            inside = (cpos >= 0) & (cpos < window_len)
            kept[cpos[inside]] = True
        kept[0] = True  # the root survives every embedding

        kept_idx = np.flatnonzero(kept)
        k = len(kept_idx)
        kept_nodes = win_nodes[kept_idx].astype(np.int64)

        # Parent window index per window node; the root's is a sentinel.
        par_widx = np.empty(window_len, dtype=np.int64)
        par_widx[0] = 0
        if window_len > 1:
            par_widx[1:] = (
                positions[hparents[win_nodes[1:]]].astype(np.int64) - window_begin
            )

        # Group window nodes by relative depth once; each embedding pass
        # below is one slice per tree level.
        rdepth = hdepths[win_nodes].astype(np.int64) - int(hdepths[root])
        depth_order = np.argsort(rdepth, kind="stable")
        sorted_depth = rdepth[depth_order]
        max_depth = int(sorted_depth[-1])
        level_bounds = np.searchsorted(sorted_depth, np.arange(max_depth + 2))

        # Nearest kept ancestor-or-self, top-down: a kept node anchors
        # itself, a spliced-out node inherits its parent's anchor.
        nearest_kept = np.zeros(window_len, dtype=np.int64)
        for depth in range(1, max_depth + 1):
            level = depth_order[level_bounds[depth] : level_bounds[depth + 1]]
            nearest_kept[level] = np.where(
                kept[level], level, nearest_kept[par_widx[level]]
            )

        # Embedded position of each kept window index.
        epos_of_widx = np.cumsum(kept) - 1

        # Embedded parent, as an embedded position (-1 for the root).
        eparent_pos = np.full(k, -1, dtype=np.int64)
        if k > 1:
            eparent_pos[1:] = epos_of_widx[
                nearest_kept[par_widx[kept_idx[1:]]]
            ]

        # Embedded depth, level-synchronous: a kept node's embedded parent
        # sits at a strictly smaller hierarchy depth, so walking hierarchy
        # levels in order sees every parent before its children.
        edepth = np.zeros(k, dtype=np.int64)
        kept_rdepth = rdepth[kept_idx]
        korder = np.argsort(kept_rdepth, kind="stable")
        ksorted = kept_rdepth[korder]
        kmax = int(ksorted[-1])
        kbounds = np.searchsorted(ksorted, np.arange(kmax + 2))
        for depth in range(1, kmax + 1):
            level = korder[kbounds[depth] : kbounds[depth + 1]]
            edepth[level] = edepth[eparent_pos[level]] + 1

        # Embedded subtree size = kept nodes inside the hierarchy interval.
        kept_cumsum = np.zeros(window_len + 1, dtype=np.int64)
        np.cumsum(kept, out=kept_cumsum[1:])
        interval_end = kept_idx + hsizes[kept_nodes].astype(np.int64)
        esize = kept_cumsum[interval_end] - kept_cumsum[kept_idx]

        # Children CSR in embedded order (embedded preorder == hierarchy
        # preorder restricted to the kept set, so a stable sort by parent
        # lists each sibling group left to right).
        child_off = np.zeros(k + 1, dtype=np.int64)
        if k > 1:
            counts = np.bincount(eparent_pos[1:], minlength=k)
            np.cumsum(counts, out=child_off[1:])
            corder = np.argsort(eparent_pos[1:], kind="stable")
            child_val = kept_nodes[corder + 1]
        else:
            child_val = np.empty(0, dtype=np.int64)

        # Per-node results CSR, re-keyed from annotated-concept rows to
        # embedded preorder via one searchsorted + segmented gather.
        if len(concepts):
            row = np.minimum(
                np.searchsorted(concepts, kept_nodes), len(concepts) - 1
            )
            present = concepts[row] == kept_nodes
            src_lengths = np.diff(res_off)
            lengths = np.where(present, src_lengths[row], 0)
        else:
            lengths = np.zeros(k, dtype=np.int64)
        res_off_e = np.zeros(k + 1, dtype=np.int64)
        np.cumsum(lengths, out=res_off_e[1:])
        total = int(res_off_e[-1])
        if total:
            present_rows = row[present]
            present_lengths = lengths[present]
            base = np.repeat(res_off[present_rows], present_lengths)
            reset = np.repeat(
                np.cumsum(present_lengths) - present_lengths, present_lengths
            )
            res_val_e = res_val[base + np.arange(total) - reset]
        else:
            res_val_e = np.empty(0, dtype=np.int64)

        return cls(
            hierarchy,
            root,
            order=kept_nodes,
            eparent=np.where(
                eparent_pos >= 0, kept_nodes[np.maximum(eparent_pos, 0)], -1
            ),
            edepth=edepth,
            esize=esize.astype(np.int64),
            child_off=child_off,
            child_val=child_val,
            res_off=res_off_e,
            res_val=res_val_e,
        )

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
        return int(self._eparent[self._require(node)])

    def children(self, node: int) -> Sequence[int]:
        """Embedded-tree children of ``node``, left to right."""
        position = self._require(node)
        begin, end = self._child_off[position], self._child_off[position + 1]
        return tuple(self._child_val[begin:end].tolist())

    def is_leaf(self, node: int) -> bool:
        """True when ``node`` has no embedded children."""
        position = self._require(node)
        return int(self._child_off[position]) == int(self._child_off[position + 1])

    def label(self, node: int) -> str:
        """Concept label of ``node`` (delegates to the hierarchy)."""
        self._require(node)
        return self.hierarchy.label(node)

    def edges(self) -> Iterator[Edge]:
        """All (parent, child) edges of the embedded tree."""
        order = self._order.tolist()
        offsets = self._child_off.tolist()
        child_val = self._child_val.tolist()
        for position, node in enumerate(order):
            for child in child_val[offsets[position] : offsets[position + 1]]:
                yield (node, child)

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
        """Citations attached directly to ``node`` (L(n)), sorted.

        A read-only slice of the results CSR.  A subtree's distinct
        citations are ``Component(tree, node).distinct_results()``.
        """
        position = self._require(node)
        return self._res_val[self._res_off[position] : self._res_off[position + 1]]

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
        """Results-CSR values: per-node sorted citation ids (read-only)."""
        return self._res_val

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

        Returns ``(positions, parents, depths)``: the members' embedded
        preorder positions, sorted — which is the component's own
        preorder, root first and each sibling group left to right — then
        per member the index of its parent within ``positions`` (-1 for
        the component root) and its depth in the tree.  The positions
        come straight from the interval component's preorder slices.
        """
        positions = component.positions()
        parents = np.searchsorted(positions, self._pos_of[self._eparent[positions]])
        parents[0] = -1
        return positions, parents, self._edepth[positions]

    # ------------------------------------------------------------------
    # Statistics (Table I columns)
    # ------------------------------------------------------------------
    def size(self) -> int:
        """Navigation tree size (node count, Table I)."""
        return len(self._order)

    def max_width(self) -> int:
        """Maximum number of nodes at one embedded-tree depth (Table I)."""
        return int(np.bincount(self._edepth).max())

    def height(self) -> int:
        """Longest root-to-leaf edge count in the embedded tree (Table I)."""
        return int(self._edepth.max())

    def citations_with_duplicates(self) -> int:
        """Total attachment count, duplicates included (Table I).

        Each citation counts once per concept it is attached to.
        """
        return len(self._res_val)

    def tree_depth(self, node: int) -> int:
        """Depth of ``node`` in the embedded tree (root = 0, O(1))."""
        return int(self._edepth[self._require(node)])

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
