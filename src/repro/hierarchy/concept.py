"""Concept hierarchy substrate (paper Definition 1).

A :class:`ConceptHierarchy` is a labeled tree of concept nodes rooted at a
single root node.  Following the semantics of MeSH, the label of a child is
more specific than the label of its parent, and every node carries a MeSH
style *tree number* encoding its position (e.g. ``"G04.335.122"``).

Nodes are addressed by dense integer ids (the root is always id ``0``),
which keeps the navigation algorithms array-friendly; stable string ``uid``
identifiers (MeSH descriptor-like, e.g. ``"D015398"``) are kept alongside
for external lookups.  Every read is answered from the tree's
:class:`~repro.hierarchy.arrays.HierarchyArrays` positional form.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.hierarchy.arrays import HierarchyArrays

__all__ = ["Concept", "ConceptHierarchy"]


@dataclass(frozen=True)
class Concept:
    """A single concept node, as seen by client code.

    Attributes:
        node_id: dense integer id within the owning hierarchy.
        uid: stable string identifier (MeSH descriptor style).
        label: human readable concept label.
        tree_number: dotted path locating the node in the hierarchy.
        depth: number of edges from the root (root has depth 0).
    """

    node_id: int
    uid: str
    label: str
    tree_number: str
    depth: int


class ConceptHierarchy:
    """A rooted, labeled concept tree with MeSH-style tree numbers.

    Immutable: a hierarchy *is* its :class:`HierarchyArrays`, built once
    by :meth:`from_parents` (or memory-mapped from a substrate directory
    by :meth:`open`), and every accessor reads those arrays.  Per-node
    queries are O(1) array lookups; subtree queries are slices of the
    contiguous preorder interval of the subtree.  :meth:`relabeled`
    returns a new hierarchy, so one instance can be shared freely.
    """

    def __init__(self, arrays: HierarchyArrays, path: Optional[str] = None):
        self._arr = arrays
        self._path = path
        self._by_uid: Optional[Dict[str, int]] = None
        self._by_label: Optional[Tuple[Dict[str, int], Dict[str, int]]] = None

    @classmethod
    def from_parents(
        cls,
        parents: Sequence[int],
        labels: Sequence[str],
        uids: Optional[Sequence[str]] = None,
    ) -> "ConceptHierarchy":
        """Build a hierarchy from insertion-ordered parent/label/uid lists.

        Node ``i`` has parent ``parents[i]``, which must be an earlier
        node; the root is node 0 with parent -1.  Without ``uids`` every
        node gets ``"D%06d" % id`` and the root ``"ROOT"``.

        Raises:
            ValueError: when the root is missing or not first, a parent
                does not precede its child, the three lists differ in
                length, or a uid repeats.
        """
        if uids is None:
            uids = ["ROOT"] + ["D%06d" % node for node in range(1, len(parents))]
        if not len(parents) == len(labels) == len(uids):
            raise ValueError(
                "parents, labels and uids differ in length: %d, %d, %d"
                % (len(parents), len(labels), len(uids))
            )
        if not len(parents) or parents[0] != -1:
            raise ValueError("node 0 must be the root (parent -1)")
        checked = np.asarray(parents, dtype=np.int64)
        bad = np.flatnonzero(
            (checked[1:] < 0) | (checked[1:] >= np.arange(1, len(checked)))
        )
        if len(bad):
            node = int(bad[0]) + 1
            raise ValueError(
                "node %d has parent %d, not an earlier node" % (node, checked[node])
            )
        if len(set(uids)) != len(uids):
            duplicate = next(uid for uid, n in Counter(uids).items() if n > 1)
            raise ValueError("duplicate concept uid: %r" % duplicate)
        return cls(HierarchyArrays._from_parent_arrays(checked, labels, uids))

    @classmethod
    def open(cls, directory: str) -> "ConceptHierarchy":  # repro: ignore[shadowed-builtin]
        """Open the hierarchy persisted in a substrate directory (mmap)."""
        return cls(HierarchyArrays.load(directory), path=directory)

    def relabeled(self, labels: Mapping[int, str]) -> "ConceptHierarchy":
        """The same tree with the nodes in ``labels`` renamed.

        Used to graft real MeSH names onto synthetic hierarchies for the
        workload targets.  Only the label pool is rebuilt; the structural
        arrays are shared.
        """
        names = self._arr.labels()
        for node, label in labels.items():
            self._at(node)
            names[node] = label
        return ConceptHierarchy(self._arr.relabeled(names))

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._arr)

    @property
    def root(self) -> int:
        """Node id of the root (always 0)."""
        return 0

    def label(self, node: int) -> str:
        """Human-readable label of ``node``."""
        return self._at(node).label(node)

    def uid(self, node: int) -> str:
        """Stable string identifier of ``node``."""
        return self._at(node).uid(node)

    def parent(self, node: int) -> int:
        """Parent node id, or -1 for the root."""
        return int(self._at(node).parents[node])

    def children(self, node: int) -> Sequence[int]:
        """Children of ``node``, in insertion order."""
        arr = self._at(node)
        offsets = arr.child_offsets
        return tuple(arr.children[offsets[node] : offsets[node + 1]].tolist())

    def depth(self, node: int) -> int:
        """Edge distance from the root (root = 0)."""
        return int(self._at(node).depths[node])

    def is_leaf(self, node: int) -> bool:
        """True when ``node`` has no children."""
        return self.subtree_size(node) == 1

    def by_uid(self, uid: str) -> int:
        """Node id carrying ``uid``; raises KeyError when absent."""
        if self._by_uid is None:
            uids = self.arrays().uids()
            self._by_uid = {value: node for node, value in enumerate(uids)}
        return self._by_uid[uid]

    def by_label(self, label: str) -> int:
        """Lowest node id carrying ``label``; raises KeyError when absent.

        An exact match wins; failing that, labels match case-insensitively
        (PubMed matches headings that way), again lowest node id first.
        """
        if self._by_label is None:
            exact: Dict[str, int] = {}
            folded: Dict[str, int] = {}
            for node, value in enumerate(self.arrays().labels()):
                exact.setdefault(value, node)
                folded.setdefault(value.casefold(), node)
            self._by_label = (exact, folded)
        exact, folded = self._by_label
        node = exact.get(label)
        if node is None:
            node = folded.get(label.casefold())
        if node is None:
            raise KeyError(label)
        return node

    def concept(self, node: int) -> Concept:
        """Materialize the public :class:`Concept` view of a node."""
        return Concept(
            node_id=node,
            uid=self.uid(node),
            label=self.label(node),
            tree_number=self.tree_number(node),
            depth=self.depth(node),
        )

    # ------------------------------------------------------------------
    # Tree numbers and paths
    # ------------------------------------------------------------------
    def tree_number(self, node: int) -> str:
        """MeSH-style dotted tree number for ``node``.

        The root has the empty tree number ``""``; every other node's tree
        number is the dot-joined sequence of 1-based sibling positions along
        the root path, zero padded to three digits as in MeSH
        (e.g. ``"001.004.002"``).
        """
        arr = self.arrays()
        offsets = arr.child_offsets
        parts: List[str] = []
        for current in self.path_to_root(node)[:-1]:
            parent = int(arr.parents[current])
            # Siblings sit ascending in the children CSR.
            siblings = arr.children[offsets[parent] : offsets[parent + 1]]
            parts.append("%03d" % (int(np.searchsorted(siblings, current)) + 1))
        return ".".join(reversed(parts))

    def path_to_root(self, node: int) -> List[int]:
        """Node ids from ``node`` up to and including the root."""
        parents = self._at(node).parents
        path = [node]
        while path[-1] != 0:
            path.append(int(parents[path[-1]]))
        return path

    def is_ancestor(self, ancestor: int, node: int) -> bool:
        """True when ``ancestor`` lies on the root path of ``node``.

        A node is considered an ancestor of itself.
        """
        self._at(ancestor)
        arr = self._at(node)
        begin = int(arr.positions[ancestor])
        return begin <= int(arr.positions[node]) < begin + int(arr.subtree_sizes[ancestor])

    def lowest_common_ancestor(self, a: int, b: int) -> int:
        """Deepest node that is an ancestor of both ``a`` and ``b``."""
        return next(c for c in self.path_to_root(a) if self.is_ancestor(c, b))

    # ------------------------------------------------------------------
    # Traversals
    # ------------------------------------------------------------------
    def _interval(self, start: int) -> np.ndarray:
        """Node ids of the subtree rooted at ``start``, in preorder."""
        arr = self._at(start)
        begin = int(arr.positions[start])
        return arr.preorder[begin : begin + int(arr.subtree_sizes[start])]

    def iter_dfs(self, start: int = 0) -> Iterator[int]:
        """Pre-order depth-first traversal of the subtree rooted at ``start``."""
        return iter(self._interval(start).tolist())

    def iter_postorder(self, start: int = 0) -> Iterator[int]:
        """Post-order traversal of the subtree rooted at ``start``."""
        interval = self._interval(start)
        arr = self.arrays()
        # A node's post-order rank is its preorder rank minus its proper
        # ancestors plus its proper descendants (relative to ``start``).
        rank = (
            np.arange(len(interval))
            - (arr.depths[interval] - arr.depths[start])
            + arr.subtree_sizes[interval]
            - 1
        )
        order = np.empty(len(interval), dtype=interval.dtype)
        order[rank] = interval
        return iter(order.tolist())

    def subtree(self, node: int) -> List[int]:
        """All node ids in the subtree rooted at ``node`` (pre-order)."""
        return self._interval(node).tolist()

    def subtree_size(self, node: int) -> int:
        """Number of nodes in the subtree rooted at ``node``."""
        return int(self._at(node).subtree_sizes[node])

    def leaves(self, start: int = 0) -> List[int]:
        """Leaf nodes of the subtree rooted at ``start``, pre-order."""
        interval = self._interval(start)
        return interval[self.arrays().subtree_sizes[interval] == 1].tolist()

    def height(self, start: int = 0) -> int:
        """Length in edges of the longest downward path from ``start``."""
        depths = self.arrays().depths
        return int(depths[self._interval(start)].max()) - int(depths[start])

    def max_width(self, start: int = 0) -> int:
        """Maximum number of nodes at any single depth within the subtree."""
        return int(np.bincount(self.arrays().depths[self._interval(start)]).max())

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_records(self) -> List[Tuple[str, str, int]]:
        """Flatten to (uid, label, parent_id) records; root comes first."""
        arr = self.arrays()
        return list(zip(arr.uids(), arr.labels(), arr.parents.tolist()))

    @classmethod
    def from_records(cls, records: Iterable[Tuple[str, str, int]]) -> "ConceptHierarchy":
        """Rebuild a hierarchy from :meth:`to_records` output.

        Records must list each parent before any of its children, with the
        root (parent -1) first — the order :meth:`to_records` produces.
        """
        rows = list(records)
        return cls.from_parents(
            [row[2] for row in rows], [row[1] for row in rows], [row[0] for row in rows]
        )

    def __reduce__(self):
        # Directory-backed hierarchies reopen by path on the receiving end
        # (the arrays mmap back in); the rest ship their arrays.
        if self._path is not None:
            return (ConceptHierarchy.open, (self._path,))
        return (ConceptHierarchy, (self._arr,))

    # ------------------------------------------------------------------
    # Array form
    # ------------------------------------------------------------------
    def arrays(self) -> HierarchyArrays:
        """Positional-array form of this hierarchy.

        Returns the flat int32/int64 encoding every accessor and the
        cold-path kernels read.
        """
        return self._arr

    # ------------------------------------------------------------------
    def _at(self, node: int) -> HierarchyArrays:
        """The arrays, once ``node`` is known to be a valid node id."""
        arr = self.arrays()
        if not 0 <= node < len(arr.parents):
            raise IndexError("node id %r out of range" % (node,))
        return arr

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return "ConceptHierarchy(%d nodes, root=%r)" % (len(self), self.label(0))
