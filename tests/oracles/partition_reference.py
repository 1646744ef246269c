"""Dict-based bottom-up k-partition: the reference oracle.

This is the original per-node implementation of the paper's §VI-A
partitioner (after Kundu–Misra [11]), kept verbatim as the oracle that
the array-native :mod:`repro.core.partition` is pinned against
(``tests/test_partition_equivalence.py``) and that
``benchmarks/bench_coldpath.py`` times as the legacy first-EXPAND path.

The partitioner processes the tree bottom-up: at each node it accumulates
the residual weight of its un-partitioned children and, while the
accumulated weight exceeds the threshold δ, splits off the heaviest
remaining child subtree as a partition.  Node weight is |L(n)|; δ starts
at W/N and grows geometrically until at most N partitions result.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from repro.core.edgecut import Component
from repro.core.heuristic import HeuristicReducedOpt
from repro.core.opt_edgecut import CutTree

__all__ = [
    "ReferenceHeuristicReducedOpt",
    "k_partition",
    "partition_with_limit",
    "preorder_arrays",
    "segment_sums",
]

Adjacency = Mapping[int, Sequence[int]]


def segment_sums(
    values: np.ndarray, offsets: np.ndarray, lengths: np.ndarray
) -> np.ndarray:
    """Per-segment sums of a flattened batch (empty segments sum to 0).

    ``values`` holds every segment back to back; segment ``i`` spans
    ``values[offsets[i] : offsets[i] + lengths[i]]``.  Built on
    ``np.add.reduceat`` over ``values`` plus a zero sentinel: a trailing
    empty segment's offset equals ``len(values)``, which is a valid
    index into the extended array, so no offset ever has to be clamped
    onto the preceding segment's final element (clamping would shift
    that segment's reduction boundary and truncate its sum).  The
    remaining reduceat quirk — an empty segment reports the element *at*
    its offset — is masked out explicitly.
    """
    out = np.zeros(len(offsets), dtype=np.float64)
    if len(values) == 0 or len(offsets) == 0:
        return out
    extended = np.zeros(len(values) + 1, dtype=np.float64)
    extended[: len(values)] = values
    sums = np.add.reduceat(extended, offsets)
    nonempty = lengths > 0
    out[nonempty] = sums[nonempty]
    return out


def k_partition(
    adjacency: Adjacency,
    root: int,
    weights: Mapping[int, float],
    delta: float,
) -> List[List[int]]:
    """Partition the tree into contiguous subtrees of residual weight ≤ δ.

    Args:
        adjacency: node → children (the component subtree).
        root: tree root.
        weights: node → non-negative weight (|L(n)| in the paper).
        delta: weight threshold.

    Returns:
        Partitions as node lists; each partition's first element is its
        subtree root.  Partitions are emitted bottom-up, with the
        root-containing partition last.  A single node heavier than δ
        forms (part of) its own partition — the threshold cannot split
        atoms.
    """
    if delta < 0:
        raise ValueError("delta must be non-negative")
    residual_weight: Dict[int, float] = {}
    residual_members: Dict[int, List[int]] = {}
    partitions: List[List[int]] = []

    for node in _postorder(adjacency, root):
        weight = float(weights[node])
        if weight < 0:
            raise ValueError("weights must be non-negative")
        live_children = [(residual_weight[c], c) for c in adjacency.get(node, ())]
        total = weight + sum(w for w, _ in live_children)
        # Split off heaviest children until the node's residual fits.
        live_children.sort()
        while total > delta and live_children:
            child_weight, child = live_children.pop()
            partitions.append(residual_members[child])
            total -= child_weight
        members = [node]
        for _, child in live_children:
            members.extend(residual_members[child])
        residual_weight[node] = total
        residual_members[node] = members

    partitions.append(residual_members[root])
    return partitions


def partition_with_limit(
    adjacency: Adjacency,
    root: int,
    weights: Mapping[int, float],
    max_partitions: int,
    growth: float = 1.3,
) -> List[List[int]]:
    """Partition into at most ``max_partitions`` parts (paper §VI-A).

    Starts from δ = W / max_partitions and grows δ geometrically until the
    partition count fits.  When the result collapses to a single partition
    while the tree has several nodes, the heaviest child subtree of the
    root is forced out so the reduced tree always has at least one edge to
    cut (the paper implicitly assumes this never happens because its
    component trees are large).
    """
    if max_partitions < 1:
        raise ValueError("max_partitions must be at least 1")
    if growth <= 1.0:
        raise ValueError("growth must exceed 1")
    order = _postorder(adjacency, root)
    node_count = len(order)
    total = float(sum(weights[n] for n in order))
    delta = total / max_partitions if total > 0 else 1.0
    partitions = k_partition(adjacency, root, weights, delta)
    while len(partitions) > max_partitions:
        delta *= growth
        partitions = k_partition(adjacency, root, weights, delta)
    if len(partitions) == 1 and node_count > 1 and max_partitions > 1:
        partitions = _force_split(adjacency, root, weights)
    return partitions


def _force_split(
    adjacency: Adjacency, root: int, weights: Mapping[int, float]
) -> List[List[int]]:
    """Split the heaviest root-child subtree into its own partition."""
    children = list(adjacency.get(root, ()))
    if not children:
        return [[root]]
    subtree_weights = []
    for child in children:
        nodes = list(_postorder(adjacency, child))
        subtree_weights.append((sum(weights[n] for n in nodes), child, nodes))
    subtree_weights.sort()
    _, heavy_child, heavy_nodes = subtree_weights[-1]
    # Keep partition-root-first ordering for the split-off part.
    split = [heavy_child] + [n for n in heavy_nodes if n != heavy_child]
    rest = [root] + [
        n
        for _, child, nodes in subtree_weights[:-1]
        for n in ([child] + [m for m in nodes if m != child])
    ]
    return [split, rest]


def _postorder(adjacency: Adjacency, root: int) -> List[int]:
    order: List[int] = []
    stack: List[Tuple[int, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        stack.append((node, True))
        for child in adjacency.get(node, ()):
            stack.append((child, False))
    return order


def preorder_arrays(
    adjacency: Adjacency, root: int, weights: Mapping[int, float]
) -> Tuple[List[int], List[int], List[float], List[int]]:
    """``(parents, sizes, weights, ids)`` of a tree in preorder.

    Converts the oracle's adjacency form into the array form of
    :mod:`repro.core.partition`: children are visited in adjacency
    order, so a node's children sit at increasing positions, and
    ``sizes`` counts each position's subtree.
    """
    ids: List[int] = []
    parents: List[int] = []
    stack: List[Tuple[int, int]] = [(root, -1)]
    while stack:
        node, parent = stack.pop()
        position = len(ids)
        ids.append(node)
        parents.append(parent)
        for child in reversed(adjacency.get(node, ())):
            stack.append((child, position))
    sizes = [1] * len(ids)
    for position in range(len(ids) - 1, 0, -1):
        sizes[parents[position]] += sizes[position]
    return parents, sizes, [weights[n] for n in ids], ids


class ReferenceHeuristicReducedOpt(HeuristicReducedOpt):
    """Heuristic-ReducedOpt with the original dict-based reduction.

    Builds the component's adjacency and weight dicts, partitions them
    with this module's :func:`partition_with_limit`, and assembles the
    supernode tree node by node — the first-EXPAND path the array-native
    ``HeuristicReducedOpt._reduce`` replaced.
    """

    def _reduce(self, interval: Component) -> Tuple[CutTree, List[int]]:
        """Partition the component and build the reduced supernode tree.

        Returns the CutTree plus, per supernode index, the original concept
        node rooting that partition (used to map cuts back).
        """
        tree = self.tree
        component = frozenset(interval)
        root = interval.root
        adjacency = {
            n: [c for c in tree.children(n) if c in component] for n in component
        }
        weights = {n: float(len(tree.results(n))) for n in component}
        partitions = partition_with_limit(
            adjacency, root, weights, self.max_reduced_nodes
        )
        part_of: Dict[int, int] = {}
        for index, members in enumerate(partitions):
            for member in members:
                part_of[member] = index
        # Each partition list is emitted root-first by the partitioner.
        roots = [members[0] for members in partitions]
        root_part = part_of[root]

        # Order supernodes so the overall root is CutTree node 0; keep a
        # stable order for the rest.
        order = [root_part] + [i for i in range(len(partitions)) if i != root_part]
        new_index = {old: new for new, old in enumerate(order)}

        children: List[List[int]] = [[] for _ in partitions]
        for old_index, part_root in enumerate(roots):
            if old_index == root_part:
                continue
            parent_part = part_of[tree.parent(part_root)]
            children[new_index[parent_part]].append(new_index[old_index])

        # Supernode statistics over the model's arrays: EXPLORE mass
        # sums are segmented sums over each part's members in ascending
        # id order, and the member histograms are exact integer gathers.
        probs = self.probs
        parts = [partitions[old_index] for old_index in order]
        sizes = np.asarray([len(members) for members in parts], dtype=np.int64)
        flat = tree.positions([m for members in parts for m in sorted(members)])
        explore = segment_sums(
            probs.explore_mass[flat], np.cumsum(sizes) - sizes, sizes
        ).tolist()
        results = []
        member_counts = []
        payload: List[object] = []
        for members in parts:
            results.append(np.concatenate([tree.results(m) for m in members]))
            member_counts.append(probs.result_counts[tree.positions(members)].tolist())
            payload.append(tuple(members))
        # A CutTree carries citation ranks: number the ids densely.
        _, ranks = np.unique(np.concatenate(results), return_inverse=True)
        reduced = CutTree(
            children=children,
            results=np.split(ranks, np.cumsum([len(r) for r in results])[:-1]),
            explore=explore,
            member_counts=member_counts,
            payload=payload,
        )
        part_roots = [roots[old_index] for old_index in order]
        return reduced, part_roots
