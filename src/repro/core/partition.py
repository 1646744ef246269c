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
A pass visits only the sibling groups whose parent's subtree outweighs
δ: below a lighter node nothing is split and every residual is the
subtree weight, computed once.  Integer weights keep every sum exact in
float64, so the cuts equal the sequential algorithm's.  Only the last
pass is materialized (DESIGN.md §5 states the part and member order
contract).  The dict-based original is the oracle in ``tests/oracles``.
"""

from __future__ import annotations

from typing import List, NamedTuple, Sequence, Tuple, Union

import numpy as np

__all__ = ["k_partition", "partition_with_limit"]

#: A per-position column: a numpy array or any sequence of numbers.
Column = Union[np.ndarray, Sequence[float]]
#: Parts as ``(members, ends)``: positions part by part, and part ends.
Parts = Tuple[np.ndarray, np.ndarray]


class _Level(NamedTuple):
    """One depth level's δ-independent layout."""

    nodes: np.ndarray  # positions at this depth, by (parent, id)
    parents: np.ndarray  # their parents; sibling groups are contiguous
    bounds: np.ndarray  # index of each sibling group's first node, then len
    group: np.ndarray  # sibling-group index of each node
    heads: np.ndarray  # each group's parent
    head_subtree: np.ndarray  # subtree weight of each group's parent


class _Pass(NamedTuple):
    """One δ pass's outcome."""

    residual: np.ndarray  # final residual of every node
    split: np.ndarray  # positions split off from their parent


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
        self.subtree = self.weights.copy()
        self.levels: List[_Level] = []
        for depth in range(len(bounds) - 2, 0, -1):
            # Nodes grouped by parent, ascending id within each group: a
            # stable sort by (group, residual) then breaks ties by id.
            nodes = by_depth[bounds[depth] : bounds[depth + 1]]
            nodes = nodes[np.lexsort((self.ids[nodes], self.parents[nodes]))]
            par = self.parents[nodes]
            self.subtree += np.bincount(par, weights=self.subtree[nodes], minlength=k)
            first = np.ones(len(nodes), dtype=bool)
            first[1:] = par[1:] != par[:-1]
            starts = np.flatnonzero(first)
            self.levels.append(
                _Level(
                    nodes, par, np.append(starts, len(nodes)), np.cumsum(first) - 1,
                    par[starts], self.subtree[par[starts]],
                )
            )

    def __len__(self) -> int:
        return len(self.parents)

    def sweep(self, delta: float) -> _Pass:
        """One δ pass, bottom up, over the groups whose parent outweighs δ.

        Every other node keeps its subtree weight as its residual.  Per
        level, one lexsort ranks each visited group by ascending
        (residual, id) and one segmented cumsum gives prefix sums; a child
        is split off iff its parent's weight plus the residuals up to and
        including it exceeds δ.
        """
        residual = self.subtree.copy()
        splits = []
        for level in self.levels:
            heavy = np.flatnonzero(level.head_subtree > delta)
            if not len(heavy):
                continue
            lengths = level.bounds[heavy + 1] - level.bounds[heavy]
            starts = np.cumsum(lengths) - lengths
            group = np.repeat(np.arange(len(heavy)), lengths)
            nodes = level.nodes[
                np.repeat(level.bounds[heavy] - starts, lengths) + np.arange(len(group))
            ]
            values = residual[nodes]
            order = np.lexsort((values, group))
            ranked = values[order]
            running = np.cumsum(ranked)
            prefix = running - (running - ranked)[starts][group]
            heads = level.heads[heavy]
            split = self.weights[heads][group] + prefix > delta
            kept = np.maximum.reduceat(np.where(split, 0.0, prefix), starts)
            residual[heads] = self.weights[heads] + kept
            splits.append(nodes[order[split]])
        return _Pass(residual, np.concatenate(splits or [np.zeros(0, np.int64)]))

    def materialize(self, result: _Pass) -> Parts:
        """A δ pass's parts, in the sequential algorithm's order.

        Parts follow the right-to-left postorder of their parent node —
        the reverse of preorder — heaviest first among siblings, with the
        root's part last; members follow a DFS over the kept children in
        ascending (residual, id) order.
        """
        ids, residual = self.ids, result.residual
        cut = np.zeros(len(self), dtype=bool)
        cut[result.split] = True
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
        for level in reversed(self.levels):
            ranked = level.nodes[np.lexsort((residual[level.nodes], level.group))]
            keep = ~cut[ranked]
            sizes = np.where(keep, size[ranked], 0)
            before = np.cumsum(sizes) - sizes
            offset = before - before[level.bounds[level.group]] + 1
            slot[ranked[keep]] = slot[level.parents[keep]] + offset[keep]
        members = np.empty(len(self), dtype=np.int64)
        members[slot] = np.arange(len(self))
        return members, ends

    def force_split(self) -> Parts:
        """Split the heaviest root-child subtree into its own partition.

        Each part lists its root, then the rest of its subtree in
        right-to-left postorder (reverse preorder).
        """
        heads = np.flatnonzero(self.parents == 0)
        ends = np.append(heads[1:], len(self))
        ranked = np.lexsort((self.ids[heads], self.subtree[heads])).tolist()
        pieces = [
            np.append(heads[i], np.arange(ends[i] - 1, heads[i], -1)) for i in ranked
        ]
        members = np.concatenate([pieces[-1], [0]] + pieces[:-1])
        return members, np.array([len(pieces[-1]), len(self)])


def _as_lists(ids: Column, parts: Parts) -> List[List[int]]:
    """Parts as node-id lists."""
    members, ends = parts
    labels = np.asarray(ids, dtype=np.int64)[members].tolist()
    bounds = [0] + ends.tolist()
    return [labels[bounds[i] : bounds[i + 1]] for i in range(len(ends))]


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
    return _as_lists(ids, tree.materialize(tree.sweep(delta)))


def partition_with_limit(
    parents: Column,
    depths: Column,
    weights: Column,
    ids: Column,
    max_partitions: int,
    growth: float = 1.3,
) -> Parts:
    """At most ``max_partitions`` parts, as positions (paper §VI-A).

    Starts from δ = W / max_partitions and grows δ geometrically until the
    partition count fits.  When the result collapses to a single partition
    while the tree has several nodes, the heaviest child subtree of the
    root is forced out so the reduced tree always has at least one edge to
    cut (the paper implicitly assumes this never happens because its
    component trees are large).  Arguments as for :func:`k_partition`.

    Returns:
        ``(members, ends)``: every position once, part by part in
        :func:`k_partition`'s part and member order, and each part's end
        in ``members``.
    """
    if max_partitions < 1:
        raise ValueError("max_partitions must be at least 1")
    if growth <= 1.0:
        raise ValueError("growth must exceed 1")
    tree = _Levels(parents, depths, weights, ids)
    total = float(tree.weights.sum())
    delta = total / max_partitions if total > 0 else 1.0
    result = tree.sweep(delta)
    while len(result.split) + 1 > max_partitions:
        delta *= growth
        result = tree.sweep(delta)
    if not len(result.split) and len(tree) > 1 and max_partitions > 1:
        return tree.force_split()
    return tree.materialize(result)
