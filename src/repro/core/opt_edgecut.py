"""Opt-EdgeCut: the optimal (exponential) best-EdgeCut algorithm (paper §VI-A).

``Opt-EdgeCut`` computes, for a (small) component subtree, the valid
EdgeCut minimizing the expected TOPDOWN navigation cost.  It enumerates all
valid EdgeCuts of the subtree and recursively costs every component each
cut creates, memoizing costs per component (the paper's dynamic-programming
reuse).  The memo lives for one solve: every entry is normalized over the
EXPLORE mass of the whole solved tree, not over the sub-component it
describes, so it is never read as another component's plan.  The
complexity is exponential — O(2^|T|) components in the worst case — which
is exactly why the paper only runs it on reduced trees of at most ~10
supernodes (see :mod:`repro.core.heuristic`).

The algorithm operates on a :class:`CutTree`, a tiny standalone tree
carrying per-node result sets and EXPLORE mass.  Both raw navigation-tree
components and the heuristic's reduced supernode trees are converted into
this form, so the optimal machinery is shared.

Engine internals (the bitmask representation)
---------------------------------------------

Because solvable trees are capped at :data:`MAX_OPT_NODES` (= 16) nodes,
every component is represented as an ``int`` bitmask over the CutTree's
dense node indices:

* per-node **subtree masks** are precomputed once at solver construction,
  so deriving the upper/lower components of a cut is two bitwise ops
  instead of a DFS per lower root;
* the per-component **cost memo** (:attr:`OptEdgeCut._memo`) and the
  per-component **statistics memo** (EXPLORE mass, distinct-result count,
  member count) are keyed on masks, making lookups integer hashes; the
  member-count histogram is built only for the components whose EXPAND
  probability reads it (distinct count between the two thresholds);
* distinct-result counting ORs precomputed per-node **citation bitmaps**
  and takes a popcount, instead of unioning Python sets; the bitmaps
  come from one numbering of the tree's citation ranks (a mark over the
  ranks and its running count, no sort) and one ``np.packbits`` pass;
* cut enumeration is a **lazy depth-first search** over per-child choices
  (cut the edge, or recurse into the child) that prunes whole prefixes of
  the cut space once the accumulated lower-component cost can no longer
  beat the best expansion term found so far.

Stars — a root whose children are all leaves, at most
:data:`MAX_STAR_LEAVES` of them, the shape of Heuristic-ReducedOpt's
reduced trees on cold queries — skip the search and its set-up
(:meth:`OptEdgeCut._solve_star`).  Their upper components are the root
plus a leaf subset S.  The EXPLORE mass, distinct count and member count
of every S are numpy tables, the masses summed in ascending index order
as :meth:`OptEdgeCut._component_stats` sums them, and the S of one
popcount are solved against all their cuts at once: the cuts are listed
in the search's depth-first order (:func:`_star_tables`) and each term
adds up in the search's order, so ``argmin`` picks the search's cut.

The engine is observationally identical to the retained legacy
implementation (the exhaustive reference in ``tests/oracles``): it enumerates
cuts in the same order, accumulates cost terms in the same floating-point
order, and breaks ties identically, so both return bit-identical
:class:`BestCut` values — a property test enforces this on randomized
trees.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.cost_model import CostParams
from repro.core.edgecut import Component, component_children
from repro.core.navigation_tree import NavigationTree
from repro.core.probabilities import ProbabilityModel

__all__ = ["CutTree", "BestCut", "OptEdgeCut", "MAX_OPT_NODES"]

# Above this size the exhaustive enumeration is intractable in real time;
# the paper caps reduced trees at N = 10.  The bitmask engine additionally
# relies on this cap to key components by machine-word masks.
MAX_OPT_NODES = 16

# Stars up to the paper's N = 10 nodes are solved by tables; their
# (S, C) enumeration holds 3^m - 2^m cuts for m leaves.
MAX_STAR_LEAVES = 9

CutTreeEdge = Tuple[int, int]


@dataclass
class CutTree:
    """A small rooted tree ready for exhaustive EdgeCut optimization.

    Nodes are dense indices 0..k-1 with node 0 as the root.

    Attributes:
        children: adjacency lists.
        results: each node's citations as an int array of result ranks
            (non-negative, marked over ``max + 1`` slots); for a
            supernode, its members' back to back, repeats allowed.
        explore: *unnormalized* EXPLORE mass ``|L(n)| / log LT(n)`` per node
            (for a supernode: the sum over its members).  Opt-EdgeCut
            normalizes over the whole CutTree, so the tree it is invoked on
            plays the role of "the initial active tree" with pE = 1
            (paper §IV) — each expansion conditions on the user having
            chosen to explore this component.
        member_counts: per node, the |L(m)| histogram used by the entropy
            term of the EXPAND probability (read only where neither
            threshold decides it).  For plain nodes this is
            ``[len(results)]``; for supernodes, one entry per member.
            Any int sequence (list or int64 array).
        payload: opaque caller identity per node (navigation-tree node id,
            or partition descriptor), used to map cuts back.
    """

    children: List[List[int]]
    results: List[np.ndarray]
    explore: List[float]
    member_counts: List[Sequence[int]]
    payload: List[object]

    def __post_init__(self) -> None:
        k = len(self.children)
        if not (len(self.results) == len(self.explore) == len(self.payload) == k):
            raise ValueError("CutTree field lengths disagree")
        if len(self.member_counts) != k:
            raise ValueError("CutTree field lengths disagree")

    def __len__(self) -> int:
        return len(self.children)

    @property
    def root(self) -> int:
        """The root index (always 0)."""
        return 0

    @classmethod
    def from_component(
        cls, tree: NavigationTree, probs: ProbabilityModel, component: Component
    ) -> "CutTree":
        """Lift a navigation-tree component into a CutTree (payload = node id)."""
        order: List[int] = []
        index: Dict[int, int] = {}
        stack = [component.root]
        while stack:
            node = stack.pop()
            index[node] = len(order)
            order.append(node)
            stack.extend(component_children(tree, component, node))
        children: List[List[int]] = [
            [index[child] for child in component_children(tree, component, node)]
            for node in order
        ]
        offsets, values = tree.result_offsets_array(), tree.result_values_array()
        positions = tree.positions(order)
        rows = positions.tolist()
        return cls(
            children=children,
            results=[values[offsets[p] : offsets[p + 1]] for p in rows],
            explore=probs.explore_mass[positions].tolist(),
            member_counts=[[int(offsets[p + 1] - offsets[p])] for p in rows],
            payload=list(order),
        )


@dataclass(frozen=True)
class BestCut:
    """Outcome of an Opt-EdgeCut run on one component.

    Attributes:
        cut: chosen CutTree edges ((parent_index, child_index) pairs);
            empty for singletons/leaf components where no cut exists.
        expected_cost: the minimized expected navigation cost of the
            component under the full cost model.
        expansion_term: the minimized bracketed EXPAND term (the quantity
            the cut choice actually controls).
    """

    cut: Tuple[CutTreeEdge, ...]
    expected_cost: float
    expansion_term: float


@lru_cache(maxsize=MAX_STAR_LEAVES)
def _star_tables(leaves: int) -> Tuple[np.ndarray, tuple]:
    """The (S, C) enumeration of a star with ``leaves`` kids (read-only).

    Bit ``leaves - 1 - t`` of a mask is the kid at children-list position
    ``t``.  Returns each mask's kid bits ``(2^m, m)`` and, per popcount
    L = 1..m, the masks S, their non-empty submasks C in descending
    (depth-first) order ``(len(S), 2^L - 1)``, and the kid bits of C.
    """
    weights = 1 << np.arange(leaves - 1, -1, -1)
    masks = np.arange(1 << leaves)
    bits = (masks[:, None] & weights).astype(bool)
    descending = masks[:0:-1]
    layers = []
    for layer in range(1, leaves + 1):
        uppers = masks[bits.sum(axis=1) == layer]
        inside = (descending & ~uppers[:, None]) == 0
        cuts = descending[np.nonzero(inside)[1]].reshape(len(uppers), (1 << layer) - 1)
        layers.append((uppers, cuts, (cuts & weights[:, None, None]).astype(bool)))
    for array in [bits] + [table for tables in layers for table in tables]:
        array.setflags(write=False)
    return bits, tuple(layers)


class OptEdgeCut:
    """Exhaustive optimal EdgeCut selection with mask-keyed memoization.

    Components are integer bitmasks over the CutTree indices; the solver
    precomputes per-node subtree masks and citation bitmaps once, memoizes
    per-component costs and statistics on those masks, and searches the
    cut space lazily with cost-bound pruning (see the module docstring).
    """

    def __init__(
        self,
        cut_tree: CutTree,
        probs: ProbabilityModel,
        params: Optional[CostParams] = None,
        max_nodes: int = MAX_OPT_NODES,
    ):
        if len(cut_tree) > max_nodes:
            raise ValueError(
                "Opt-EdgeCut is exponential; refusing a %d-node tree (max %d). "
                "Use Heuristic-ReducedOpt for larger components."
                % (len(cut_tree), max_nodes)
            )
        self.tree = cut_tree
        self.probs = probs
        self.params = params or CostParams()
        total_mass = sum(cut_tree.explore)
        # The input tree is "the initial active tree" of this expansion:
        # its total EXPLORE probability is 1 (paper §IV).
        self._explore_norm = total_mass if total_mass > 0 else 1.0
        k = len(cut_tree)
        self._children: List[Tuple[int, ...]] = [
            tuple(kids) for kids in cut_tree.children
        ]
        self._parent: List[int] = [-1] * k
        for node, kids in enumerate(self._children):
            for child in kids:
                self._parent[child] = node
        # Subtree masks, bottom-up over a preorder (children have higher
        # positions than their parent in the traversal order).
        order: List[int] = []
        stack = [cut_tree.root]
        while stack:
            node = stack.pop()
            order.append(node)
            stack.extend(self._children[node])
        self._subtree_mask: List[int] = [0] * k
        for node in reversed(order):
            mask = 1 << node
            for child in self._children[node]:
                mask |= self._subtree_mask[child]
            self._subtree_mask[node] = mask
        # Citation words: each distinct rank across the tree gets one bit,
        # numbered by a mark and its running count (no sort), so
        # distinct-result counts are OR + popcount.
        lengths = [len(citations) for citations in cut_tree.results]
        ranks = np.concatenate(cut_tree.results)
        seen = np.zeros(int(ranks.max(initial=0)) + 1, dtype=bool)
        seen[ranks] = True
        column = np.cumsum(seen) - 1
        width = -(-max(1, int(column[-1]) + 1) // 64) * 64  # whole uint64 words
        matrix = np.zeros((k, width), dtype=bool)
        matrix[np.repeat(np.arange(k), lengths), column[ranks]] = True
        self._words = np.packbits(matrix, axis=1, bitorder="little").view(np.uint64)
        self._explore: List[float] = list(cut_tree.explore)
        self._member_counts = cut_tree.member_counts
        self._members: List[int] = [len(counts) for counts in cut_tree.member_counts]
        # Mask-keyed memos: best cut per component, and component
        # statistics (EXPLORE mass, distinct results, member count).
        self._memo: Dict[int, BestCut] = {}
        self._stats: Dict[int, Tuple[float, int, int]] = {}

    @cached_property
    def _result_bits(self) -> List[int]:
        """Per-node citation bitmaps as Python ints, for the search path."""
        return [int.from_bytes(row.tobytes(), "little") for row in self._words]

    # ------------------------------------------------------------------
    def _seed_subtree_stats(self) -> None:
        """Batch-evaluate the statistics of every per-node subtree mask.

        EdgeCut search decomposes a component into its children's
        subtrees, so the per-node subtree masks are the most frequently
        keyed components of a solve: every lower component of the root
        solve is one of them.  Their distinct-result counts are computed
        in one vectorized pass — citation words, OR per subtree segment
        (``np.bitwise_or.reduceat``), ``np.bitwise_count`` — which is
        exact integer arithmetic and therefore
        bit-identical to the lazy per-mask path.  EXPLORE sums are
        accumulated sequentially in ascending index order, the exact
        accumulation :meth:`_component_stats` performs, so the seeded
        floats match it to the last bit.
        """
        k = len(self._children)
        members_per_node: List[List[int]] = []
        flat: List[int] = []
        offsets: List[int] = []
        for node in range(k):
            offsets.append(len(flat))
            members = self._indices_of(self._subtree_mask[node])
            members_per_node.append(members)
            flat.extend(members)
        orred = np.bitwise_or.reduceat(
            self._words[np.asarray(flat, dtype=np.int64)],
            np.asarray(offsets, dtype=np.int64),
            axis=0,
        )
        distinct = np.bitwise_count(orred).sum(axis=1)
        for node in range(k):
            explore_sum = 0.0
            members = 0
            for member in members_per_node[node]:
                explore_sum += self._explore[member]
                members += self._members[member]
            self._stats[self._subtree_mask[node]] = (
                explore_sum,
                int(distinct[node]),
                members,
            )

    # ------------------------------------------------------------------
    def solve(self) -> BestCut:
        """Best cut (and expected cost) for the whole CutTree."""
        root = self.tree.root
        mask = self._subtree_mask[root]
        if mask not in self._memo:
            kids = self._children[root]
            if 0 < len(kids) <= MAX_STAR_LEAVES and not any(
                self._children[kid] for kid in kids
            ):
                self._memo[mask] = self._solve_star(kids)
            else:
                self._seed_subtree_stats()
        return self.solve_component_mask(mask, root)

    def _solve_star(self, kids: Sequence[int]) -> BestCut:
        """Best cut of a star whose ``kids`` are all leaves, by tables."""
        bits, layers = _star_tables(len(kids))
        params, probs, words = self.params, self.probs, self._words
        # Statistics of every upper component root + S.
        mass = np.zeros(len(bits)) + self._explore[0]
        for position in np.argsort(kids):  # ascending node index
            mass += np.where(bits[:, position], self._explore[kids[position]], 0.0)
        members = self._members[0] + bits @ np.array([self._members[kid] for kid in kids])
        table = words[:1]
        for kid in reversed(kids):
            table = np.concatenate([table, table | words[kid]])
        distinct = np.bitwise_count(table).sum(axis=1, dtype=np.int64)
        share = mass / self._explore_norm
        # EXPAND probability: expand_by_threshold's rule, and the
        # histogram (in index order) where no threshold decides it.
        certain = (members > 1) & (distinct > probs.upper_threshold)
        p_expand = certain.astype(float)
        undecided = (members > 1) & (distinct >= probs.lower_threshold) & ~certain
        for mask in np.flatnonzero(undecided[1:]) + 1:
            nodes = [0] + sorted(kids[t] for t in np.flatnonzero(bits[mask]))
            histogram = np.concatenate([self._member_counts[i] for i in nodes])
            p_expand[mask] = probs.expand_from_distribution(
                histogram.tolist(), int(distinct[mask])
            )
        show = (1.0 - p_expand) * distinct
        # A cut leaf's lower component is a singleton: SHOWRESULTS only.
        leaf_share = np.array([self._explore[kid] for kid in kids]) / self._explore_norm
        leaf_distinct = np.bitwise_count(words[list(kids)]).sum(axis=1, dtype=np.int64)
        reveal_lowers = params.reveal_cost + leaf_share * leaf_distinct
        cost = np.empty(len(bits))
        cost[0] = share[0] * distinct[0]
        for uppers, cuts, cut_bits in layers:
            # expand, then the upper component, then lowers in kid order.
            terms = params.expand_cost + (params.reveal_cost + cost[uppers[:, None] ^ cuts])
            for cut_bit, reveal_lower in zip(cut_bits, reveal_lowers):
                terms += np.where(cut_bit, reveal_lower, 0.0)
            best = terms.min(axis=1)
            cost[uppers] = share[uppers] * (show[uppers] + p_expand[uppers] * best)
        pick = terms[0].argmin()  # the first minimum: the search's tie-break
        chosen = bits[cuts[0, pick]]
        cut = tuple((self.tree.root, kid) for kid, bit in zip(kids, chosen) if bit)
        return BestCut(cut, float(cost[-1]), float(terms[0, pick]))

    def solve_component_mask(self, mask: int, root: int) -> BestCut:
        """Best cut for the component ``mask`` (bitmask) rooted at ``root``."""
        cached = self._memo.get(mask)
        if cached is not None:
            return cached
        result = self._solve(mask, root)
        self._memo[mask] = result
        return result

    # ------------------------------------------------------------------
    # Mask helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _indices_of(mask: int) -> List[int]:
        """The indices set in ``mask``, ascending."""
        indices = []
        while mask:
            low = mask & -mask
            indices.append(low.bit_length() - 1)
            mask ^= low
        return indices

    def _component_stats(self, mask: int) -> Tuple[float, int, int]:
        """(EXPLORE mass, distinct results, member count) for ``mask``."""
        stats = self._stats.get(mask)
        if stats is not None:
            return stats
        explore_sum = 0.0
        result_bits = 0
        members = 0
        remaining = mask
        # Ascending index order — the same summation order the reference
        # engine's member-set iteration produces for indices < 16.
        while remaining:
            low = remaining & -remaining
            index = low.bit_length() - 1
            explore_sum += self._explore[index]
            result_bits |= self._result_bits[index]
            members += self._members[index]
            remaining ^= low
        stats = (explore_sum, result_bits.bit_count(), members)
        self._stats[mask] = stats
        return stats

    # ------------------------------------------------------------------
    def _solve(self, mask: int, root: int) -> BestCut:
        explore_sum, result_count, members = self._component_stats(mask)
        explore = explore_sum / self._explore_norm
        kids = [c for c in self._children[root] if (mask >> c) & 1]
        if not kids:
            # Singleton (or childless) component: only SHOWRESULTS remains.
            cost = explore * result_count
            return BestCut(cut=(), expected_cost=cost, expansion_term=0.0)

        p_expand = self.probs.expand_by_threshold(members, result_count)
        if p_expand is None:  # the histogram decides: build it, in index order
            counts = [self._member_counts[i] for i in self._indices_of(mask)]
            histogram = np.concatenate(counts).tolist()
            p_expand = self.probs.expand_from_distribution(histogram, result_count)
        best_term, best_children = self._search_cuts(mask, root, kids)
        best_cut = tuple((self._parent[c], c) for c in best_children)
        show_cost = (1.0 - p_expand) * result_count
        expected = explore * (show_cost + p_expand * best_term)
        return BestCut(cut=best_cut, expected_cost=expected, expansion_term=best_term)

    def _search_cuts(
        self, mask: int, root: int, kids: Sequence[int]
    ) -> Tuple[float, Tuple[int, ...]]:
        """Minimize the expansion term over all valid non-empty cuts.

        The search walks a stack of undecided edges ("slots"); each slot is
        either cut (its child becomes a lower root) or descended into (its
        child's edges become new slots).  ``acc`` carries the running lower
        bound ``expand_cost + Σ (reveal_cost + cost(lower))`` over decided
        cut edges, accumulated in the same floating-point order as the
        final term, so any prefix with ``acc >= best_term`` can be pruned
        without changing the argmin or its tie-breaking.
        """
        params = self.params
        expand_cost = params.expand_cost
        reveal_cost = params.reveal_cost
        subtree_mask = self._subtree_mask
        children = self._children
        memo = self._memo
        solve = self.solve_component_mask
        best_term = float("inf")
        best_children: Tuple[int, ...] = ()
        # The expected cost of each child's lower component is invariant
        # across every cut that severs that edge; compute it on demand once.
        lower_cost: Dict[int, float] = {}
        chosen: List[int] = []

        slots = None
        for kid in reversed(kids):
            slots = (kid, slots)
        # Explicit DFS stack (no per-prefix Python call): entries are
        # (slots, acc) visits, with ``None`` markers undoing the chosen
        # edge of the enclosing option-1 branch.  Option 1 (cut the edge)
        # is pushed last so it is explored first, preserving the legacy
        # enumeration order — and since a visit re-checks ``acc`` against
        # the current best at pop time, prefixes pushed before a better
        # cut was found still prune.
        # Option 1 (cut the edge) is always the next prefix explored, so it
        # runs as the inner loop; only option 2 round-trips the stack.
        stack: List[Optional[Tuple[object, float]]] = [(slots, expand_cost)]
        while stack:
            entry = stack.pop()
            if entry is None:
                chosen.pop()
                continue
            slots, acc = entry
            while True:
                # Every completion of this prefix costs at least ``acc``.
                if acc >= best_term:
                    break
                if slots is None:
                    if chosen:  # the empty cut is not a valid EXPAND
                        upper = mask
                        for child in chosen:
                            upper &= ~subtree_mask[child]
                        # Recompute the term in the legacy accumulation
                        # order (expand, upper, then lowers) for
                        # bit-identical floats.
                        best = memo.get(upper)
                        if best is None:
                            best = solve(upper, root)
                        term = expand_cost
                        term += reveal_cost + best.expected_cost
                        if term < best_term:
                            ok = True
                            for child in chosen:
                                term += reveal_cost + lower_cost[child]
                                if term >= best_term:
                                    ok = False
                                    break
                            if ok:
                                best_term = term
                                best_children = tuple(chosen)
                    break
                child, rest = slots
                # Option 1: cut this edge (lower component = its subtree).
                cost = lower_cost.get(child)
                if cost is None:
                    lower = subtree_mask[child] & mask
                    best = memo.get(lower)
                    if best is None:
                        best = solve(lower, child)
                    cost = best.expected_cost
                    lower_cost[child] = cost
                # Option 2: keep the edge and decide the child's own edges.
                child_slots = rest
                for grandchild in reversed(children[child]):
                    if (mask >> grandchild) & 1:
                        child_slots = (grandchild, child_slots)
                stack.append((child_slots, acc))
                stack.append(None)
                chosen.append(child)
                slots = rest
                acc = acc + (reveal_cost + cost)
        return best_term, best_children
