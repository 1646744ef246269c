"""Bottom-up tree partitioning (paper §VI-A, after Kundu–Misra [11]).

``Heuristic-ReducedOpt`` shrinks a component subtree to at most N
supernodes before running Opt-EdgeCut.  The partitioner processes the tree
bottom-up: at each node it accumulates the residual weight of its
un-partitioned children and, while the accumulated weight exceeds the
threshold δ, splits off the heaviest remaining child subtree as a
partition.  This yields a minimum-cardinality partition in which every part
is a contiguous subtree and (single overweight nodes aside) weighs at most δ.

The paper sets node weight to |L(n)| and δ to W/N, then re-runs with a
gradually larger δ until at most N partitions result.

The tree arrives as preorder arrays (a component's slice of the
navigation tree's embedded preorder): ``parents[i]`` is the position of
node ``i``'s parent (``-1`` for the root at position 0), children are
ordered by increasing position, and ``ids`` carries the node ids that
break weight ties and label the output.  Each δ pass runs one tree level
at a time, bottom up, with no per-node Python: per level one lexsort
ranks every sibling group by ascending (residual, id) and one segmented
cumsum turns "pop the heaviest child while the total exceeds δ" into one
comparison per child — child ``j`` is split off iff its parent's weight
plus the residuals of the siblings up to and including ``j`` exceeds δ.
Integer weights keep every sum exact in float64, so the cuts equal the
sequential algorithm's.  Only the last pass is turned into lists, reusing
its rankings (DESIGN.md §5 states the part and member order contract).
The dict-based original is the oracle in ``tests/oracles``.
"""

from __future__ import annotations

from typing import List, NamedTuple, Sequence, Union

import numpy as np

__all__ = ["k_partition", "partition_with_limit"]

#: A per-position column: a numpy array or any sequence of numbers.
Column = Union[np.ndarray, Sequence[float]]


class _Level(NamedTuple):
    """One depth level's δ-independent layout."""

    nodes: np.ndarray  # positions at this depth, by (parent, id)
    parents: np.ndarray  # their parents; sibling groups are contiguous
    starts: np.ndarray  # index of each sibling group's first node
    group: np.ndarray  # sibling-group index of each node
    parent_weight: np.ndarray  # weight of each node's parent
    heads: np.ndarray  # each group's parent


class _Pass(NamedTuple):
    """One δ pass's outcome, per level bottom up."""

    cuts: int
    residual: np.ndarray  # final residual of every node
    orders: List[np.ndarray]  # level indices ranked by (parent, residual, id)
    splits: List[np.ndarray]  # split flag of each ranked node


class _Levels:
    """A preorder tree grouped by depth, bottom level first."""

    def __init__(
        self, parents: Column, depths: Column, weights: Column, ids: Column
    ) -> None:
        self.parents = np.asarray(parents, dtype=np.int64)
        self.weights = np.asarray(weights, dtype=np.float64)
        self.ids = np.asarray(ids, dtype=np.int64)
        k = len(self.parents)
        if len(self.weights) != k or len(self.ids) != k or len(depths) != k:
            raise ValueError("parents, depths, weights and ids must align")
        if k == 0 or self.parents[0] != -1:
            raise ValueError("position 0 must hold the root (parent -1)")
        if (self.weights < 0).any():
            raise ValueError("weights must be non-negative")
        depths = np.asarray(depths, dtype=np.int64) - int(depths[0])
        by_depth = np.argsort(depths, kind="stable")
        bounds = np.searchsorted(depths[by_depth], np.arange(int(depths.max()) + 2))
        self.levels: List[_Level] = []
        for depth in range(len(bounds) - 2, 0, -1):
            # Nodes grouped by parent, ascending id within each group: a
            # stable sort by (parent, residual) then breaks ties by id.
            nodes = by_depth[bounds[depth] : bounds[depth + 1]]
            nodes = nodes[np.lexsort((self.ids[nodes], self.parents[nodes]))]
            par = self.parents[nodes]
            first = np.ones(len(nodes), dtype=bool)
            first[1:] = par[1:] != par[:-1]
            starts = np.flatnonzero(first)
            self.levels.append(
                _Level(
                    nodes, par, starts, np.cumsum(first) - 1,
                    self.weights[par], par[starts],
                )
            )

    def __len__(self) -> int:
        return len(self.parents)

    def sweep(self, delta: float) -> _Pass:
        """One δ pass, bottom up.

        Per level, one lexsort ranks each sibling group by ascending
        (residual, id) and one segmented cumsum gives prefix sums; a child
        is split off iff its parent's weight plus the residuals up to and
        including it exceeds δ.
        """
        residual = self.weights.copy()
        orders, splits = [], []
        for level in self.levels:
            values = residual[level.nodes]
            order = np.lexsort((values, level.parents))
            ranked = values[order]
            running = np.cumsum(ranked)
            prefix = running - (running - ranked)[level.starts][level.group]
            split = level.parent_weight + prefix > delta
            kept = np.maximum.reduceat(np.where(split, 0.0, prefix), level.starts)
            residual[level.heads] = self.weights[level.heads] + kept
            orders.append(order)
            splits.append(split)
        cuts = sum(int(np.count_nonzero(split)) for split in splits)
        return _Pass(cuts, residual, orders, splits)

    def materialize(self, result: _Pass) -> List[List[int]]:
        """A δ pass's parts as id lists, in the sequential algorithm's order.

        Parts follow the right-to-left postorder of their parent node —
        the reverse of preorder — heaviest first among siblings, with the
        root's part last; members follow a DFS over the kept children in
        ascending (residual, id) order.
        """
        ids, residual = self.ids, result.residual
        cut = np.zeros(len(self), dtype=bool)
        for level, order, split in zip(self.levels, result.orders, result.splits):
            cut[level.nodes[order]] = split
        # Kept-subtree sizes bottom up, then member slots top down.
        size = np.ones(len(self), dtype=np.int64)
        for level in self.levels:
            kept = np.where(cut[level.nodes], 0, size[level.nodes])
            size[level.heads] += np.bincount(level.group, weights=kept).astype(np.int64)
        heads = np.flatnonzero(cut)
        heads = heads[
            np.lexsort((ids[heads], residual[heads], self.parents[heads]))[::-1]
        ]
        roots = np.append(heads, 0)
        ends = np.cumsum(size[roots])
        slot = np.empty(len(self), dtype=np.int64)
        slot[roots] = ends - size[roots]
        for level, order in zip(reversed(self.levels), reversed(result.orders)):
            ranked = level.nodes[order]
            keep = ~cut[ranked]
            sizes = np.where(keep, size[ranked], 0)
            before = np.cumsum(sizes) - sizes
            offset = before - before[level.starts][level.group] + 1
            slot[ranked[keep]] = slot[level.parents[keep]] + offset[keep]
        flat = np.empty(len(self), dtype=np.int64)
        flat[slot] = ids
        members = flat.tolist()
        bounds = [0] + ends.tolist()
        return [members[bounds[i] : bounds[i + 1]] for i in range(len(roots))]

    def force_split(self) -> List[List[int]]:
        """Split the heaviest root-child subtree into its own partition.

        Each part lists its root, then the rest of its subtree in
        right-to-left postorder (reverse preorder).
        """
        ids = self.ids
        heads = np.flatnonzero(self.parents == 0)
        ends = np.append(heads[1:], len(self))
        cumulative = np.concatenate(([0.0], np.cumsum(self.weights)))
        ranked = np.lexsort((ids[heads], cumulative[ends] - cumulative[heads]))
        pieces = [
            np.concatenate(([ids[heads[i]]], ids[heads[i] + 1 : ends[i]][::-1]))
            for i in ranked.tolist()
        ]
        rest = [int(ids[0])]
        for piece in pieces[:-1]:
            rest.extend(piece.tolist())
        return [pieces[-1].tolist(), rest]


def k_partition(
    parents: Column,
    depths: Column,
    weights: Column,
    ids: Column,
    delta: float,
) -> List[List[int]]:
    """Partition a preorder tree into contiguous subtrees of residual weight ≤ δ.

    Args:
        parents: per preorder position, the parent's position (root: -1 at
            position 0).
        depths: per position, the node's depth (any common offset).
        weights: per position, the non-negative weight (|L(n)| in the
            paper).  Integer-valued weights make the result exact.
        ids: per position, the node id (tie-break and output label).
        delta: weight threshold.

    Returns:
        Partitions as node-id lists; each partition's first element is
        its subtree root.  Partitions are emitted bottom-up, with the
        root-containing partition last.  A single node heavier than δ
        forms (part of) its own partition — the threshold cannot split
        atoms.
    """
    if delta < 0:
        raise ValueError("delta must be non-negative")
    tree = _Levels(parents, depths, weights, ids)
    return tree.materialize(tree.sweep(delta))


def partition_with_limit(
    parents: Column,
    depths: Column,
    weights: Column,
    ids: Column,
    max_partitions: int,
    growth: float = 1.3,
) -> List[List[int]]:
    """Partition into at most ``max_partitions`` parts (paper §VI-A).

    Starts from δ = W / max_partitions and grows δ geometrically until the
    partition count fits; only the last pass is turned into lists.  When
    the result collapses to a single partition while the tree has several
    nodes, the heaviest child subtree of the root is forced out so the
    reduced tree always has at least one edge to cut (the paper
    implicitly assumes this never happens because its component trees are
    large).  Arguments as for :func:`k_partition`.
    """
    if max_partitions < 1:
        raise ValueError("max_partitions must be at least 1")
    if growth <= 1.0:
        raise ValueError("growth must exceed 1")
    tree = _Levels(parents, depths, weights, ids)
    total = float(tree.weights.sum())
    delta = total / max_partitions if total > 0 else 1.0
    result = tree.sweep(delta)
    while result.cuts + 1 > max_partitions:
        delta *= growth
        result = tree.sweep(delta)
    if result.cuts == 0 and len(tree) > 1 and max_partitions > 1:
        return tree.force_split()
    return tree.materialize(result)
