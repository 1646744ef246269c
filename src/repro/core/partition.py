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
navigation tree's embedded preorder): ``parents[i]`` is node ``i``'s
parent position (``-1`` for the root at position 0), ``sizes[i]`` its
subtree's node count (positions ``i`` to ``i + sizes[i] - 1``, so a
subtree weight is one prefix-sum difference), and ``ids`` the node ids
that break weight ties and label the output.  A node whose subtree
weighs at most δ splits nothing below it, so only the *heavy core* (the
nodes outweighing δ, ancestors included) does any work, its child groups
ranked by ascending (subtree, id) once per call.  A δ pass walks the core
bottom up, re-ranks a group only when it holds a heavy child, and splits
child ``j`` off iff its parent's weight plus the residuals of the
siblings up to and including ``j`` exceeds δ — the sequential "pop the
heaviest child while the total exceeds δ".  Integer weights keep every
sum exact in float64, so the cuts equal the sequential algorithm's.  The
last pass is materialized with one ranking of every position (DESIGN.md
§5 states the part and member order contract).  The dict-based original
is the oracle in ``tests/oracles``.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple, Union

import numpy as np

__all__ = ["k_partition", "partition_with_limit"]

#: A per-position column: a numpy array or any sequence of numbers.
Column = Union[np.ndarray, Sequence[float]]
#: Parts as ``(members, ends)``: positions part by part, and part ends.
Parts = Tuple[np.ndarray, np.ndarray]


class _Core:
    """A preorder tree and its heavy core, the nodes outweighing ``floor``:
    no pass uses a smaller δ, so the core's groups are ranked once."""

    def __init__(
        self, parents: Column, sizes: Column, weights: Column, ids: Column, floor: float
    ) -> None:
        self.parents = np.asarray(parents, dtype=np.int64)
        self.sizes = np.asarray(sizes, dtype=np.int64)
        self.weights = np.asarray(weights, dtype=np.float64)
        self.ids = np.asarray(ids, dtype=np.int64)
        k = len(self.parents)
        if len(self.weights) != k or len(self.ids) != k or len(self.sizes) != k:
            raise ValueError("parents, sizes, weights and ids must align")
        if k == 0 or self.parents[0] != -1 or self.sizes[0] != k:
            raise ValueError("position 0 must hold the root (parent -1) of all positions")
        if (self.weights < 0).any():
            raise ValueError("weights must be non-negative")
        sums = np.append(0.0, np.cumsum(self.weights))
        self.stops = np.arange(k) + self.sizes  # one past each subtree
        self.subtree = sums[self.stops] - sums[:-1]
        # Each pass rewrites every head's residual; the rest never change.
        self.residual = self.subtree.copy()
        self.heavy = heavy = np.flatnonzero(self.subtree > floor)
        # A heavy node's depth counts the heavy intervals still open at it.
        depth = np.arange(len(heavy)) - np.searchsorted(
            np.sort(heavy + self.sizes[heavy]), heavy, side="right"
        )
        in_core = np.zeros(k + 1, dtype=bool)  # index -1: the root's parent
        in_core[heavy] = True
        kids = np.flatnonzero(in_core[self.parents])
        par = self.parents[kids]
        depth = depth[np.searchsorted(heavy, par)]
        # Deepest groups first, each ranked by ascending (subtree, id).
        order = np.lexsort((self.ids[kids], self.subtree[kids], par, -depth))
        # Per core depth, deepest first: the groups' parents, their
        # children group by group, each child's group, each group's first
        # index and the running subtree weight within each group.
        self.levels: List[Tuple[np.ndarray, ...]] = []
        bounds = np.flatnonzero(np.diff(depth[order])) + 1
        for nodes in np.split(kids[order], bounds) if len(kids) else []:
            par = self.parents[nodes]
            first = np.append(True, par[1:] != par[:-1])
            starts, group = np.flatnonzero(first), np.cumsum(first) - 1
            prefix = _prefix(self.subtree[nodes], starts, group)
            self.levels.append((par[starts], nodes, group, starts, prefix))

    def sweep(self, delta: float) -> np.ndarray:
        """One δ pass over the core's groups, deepest first: the positions
        split off from their parent, with every node's final residual in
        ``self.residual`` (a head at most δ splits nothing and keeps its
        subtree weight, as every node outside the core does)."""
        residual = self.residual
        splits = [np.zeros(0, np.int64)]
        for heads, nodes, group, starts, prefix in self.levels:
            hot = self.subtree[nodes] > delta
            if hot.any():
                # Heavy children have new residuals: re-rank their groups.
                nodes, values = nodes.copy(), residual[nodes]
                redo = np.flatnonzero(np.isin(group, group[hot]))
                order = redo[np.lexsort((self.ids[nodes[redo]], values[redo], group[redo]))]
                nodes[redo], values[redo] = nodes[order], values[order]
                prefix = _prefix(values, starts, group)
            base = self.weights[heads]
            split = base[group] + prefix > delta
            kept = np.maximum.reduceat(np.where(split, 0.0, prefix), starts)
            residual[heads] = base + kept
            splits.append(nodes[split])
        return np.concatenate(splits)

    def materialize(self, heads: np.ndarray) -> Parts:
        """A δ pass's parts, in the sequential algorithm's order.

        Parts follow the right-to-left postorder of their parent node —
        the reverse of preorder — heaviest first among siblings, with the
        root's part last; members follow a DFS over the kept children in
        ascending (residual, id) order.
        """
        parents, sizes, residual, k = self.parents, self.sizes, self.residual, len(self.parents)
        heads = heads[np.lexsort((self.ids[heads], residual[heads], parents[heads]))[::-1]]
        roots = np.append(heads, 0)
        # Paint each part over its preorder interval, outer parts first.
        part = np.empty(k, dtype=np.int64)
        outer = np.argsort(roots)
        for index, root in zip(outer.tolist(), roots[outer].tolist()):
            part[root : root + sizes[root]] = index
        counts = np.bincount(part, minlength=len(roots))
        # Kept-subtree sizes: only heavy nodes hold split parts below them.
        inside = np.append(0, np.cumsum(counts[outer]))
        heavy, kept = self.heavy, sizes.copy()
        below = inside[np.searchsorted(roots[outer], (heavy + 1, heavy + sizes[heavy]))]
        kept[heavy] -= below[1] - below[0]
        kept[heads] = 0
        # One ranking of every position by (parent, residual, id), the
        # root first: with integer weights and ids the keys pack into one
        # `int64` when they fit, and one sort ranks them.
        ids = self.ids
        total, span = int(self.subtree[0]) + 1, int(ids.max()) + 1
        exact = ids.min() >= 0 and (self.weights == np.floor(self.weights)).all()
        if exact and k * total * span < 2**63:
            key = parents * total
            key += residual.astype(np.int64)
            key *= span
            key += ids
            ranked = np.argsort(key)[1:]
        else:
            ranked = np.lexsort((ids, residual, parents))[1:]
        # `before`: the kept size of the siblings ranked ahead of a node.
        par, counted = parents[ranked], kept[ranked]
        before = np.cumsum(counted)
        before -= counted
        before -= np.maximum.accumulate(np.where(np.append(True, par[1:] != par[:-1]), before, 0))
        # A node's slot below its part's root sums 1 + `before` over the
        # path between them: one prefix sum over the preorder intervals.
        before += 1
        step = np.zeros(k)
        step[ranked] = before
        step -= np.bincount(self.stops, weights=step, minlength=k + 1)[:k]
        path = np.cumsum(step, out=step).astype(np.int64)
        ends = np.cumsum(counts)
        path += (ends - counts - path[roots])[part]
        members = np.empty(k, dtype=np.int64)
        members[path] = np.arange(k)
        return members, ends

    def force_split(self) -> Parts:
        """Split the heaviest root-child subtree into its own partition;
        each part lists its root, then the rest in reverse preorder."""
        heads = np.flatnonzero(self.parents == 0)
        ends = heads + self.sizes[heads]
        ranked = np.lexsort((self.ids[heads], self.subtree[heads])).tolist()
        pieces = [np.append(heads[i], np.arange(ends[i] - 1, heads[i], -1)) for i in ranked]
        members = np.concatenate([pieces[-1], [0]] + pieces[:-1])
        return members, np.array([len(pieces[-1]), len(members)])


def _prefix(values: np.ndarray, starts: np.ndarray, group: np.ndarray) -> np.ndarray:
    """Running sums of ``values`` restarting at each group's first entry."""
    running = np.cumsum(values)
    return running - (running - values)[starts][group]


def _as_lists(ids: Column, parts: Parts) -> List[List[int]]:
    """Parts as node-id lists."""
    members, ends = parts
    labels = np.asarray(ids, dtype=np.int64)[members].tolist()
    bounds = [0] + ends.tolist()
    return [labels[bounds[i] : bounds[i + 1]] for i in range(len(ends))]


def k_partition(
    parents: Column, sizes: Column, weights: Column, ids: Column, delta: float
) -> List[List[int]]:
    """Partition a preorder tree into contiguous subtrees of residual weight ≤ δ.

    Args:
        parents: per preorder position, the parent's position (root: -1 at
            position 0).
        sizes: per position, the node count of its subtree.
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
    tree = _Core(parents, sizes, weights, ids, delta)
    return _as_lists(ids, tree.materialize(tree.sweep(delta)))


def partition_with_limit(
    parents: Column, sizes: Column, weights: Column, ids: Column,
    max_partitions: int, growth: float = 1.3,
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
    weights = np.asarray(weights, dtype=np.float64)
    total = float(weights.sum())
    delta = total / max_partitions if total > 0 else 1.0
    tree = _Core(parents, sizes, weights, ids, delta)
    split = tree.sweep(delta)
    while len(split) + 1 > max_partitions:
        delta *= growth
        split = tree.sweep(delta)
    if not len(split) and len(tree.parents) > 1 and max_partitions > 1:
        return tree.force_split()
    return tree.materialize(split)
