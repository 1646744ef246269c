"""Heuristic-ReducedOpt (paper §VI-B).

Opt-EdgeCut is exponential, so BioNav never runs it on raw component
subtrees (thousands of nodes for real queries).  Instead, for each EXPAND:

1. the component subtree is partitioned into at most N contiguous
   supernodes with the bottom-up k-partition algorithm (node weight
   |L(n)|, threshold δ = W/N grown geometrically until ≤ N parts),
2. the reduced supernode tree — each supernode carrying the union of its
   members' citations and the sum of their EXPLORE mass — is solved
   exactly with Opt-EdgeCut, and
3. the winning reduced cut is mapped back: cutting the reduced edge into
   supernode P cuts the original edge above P's root concept.

Components already at or below N nodes skip the reduction and are solved
exactly.  The paper uses N = 10.
"""

from __future__ import annotations

from typing import AbstractSet, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.core.active_tree import ActiveTree
from repro.core.cost_model import CostParams
from repro.core.edgecut import Component, ComponentKey, as_component
from repro.core.navigation_tree import NavigationTree
from repro.core.opt_edgecut import CutTree, OptEdgeCut
from repro.core.partition import partition_with_limit
from repro.core.probabilities import ProbabilityModel
from repro.core.strategy import CutDecision, ExpansionStrategy, SolverCapabilities

__all__ = ["HeuristicReducedOpt"]

Edge = Tuple[int, int]


class HeuristicReducedOpt(ExpansionStrategy):
    """BioNav's production EXPAND strategy."""

    name = "heuristic-reducedopt"
    capabilities = SolverCapabilities(
        name="heuristic",
        optimal=False,
        exact_below=10,
        max_nodes=None,
        estimates_cost=True,
        cost_bound=1.25,
        description=(
            "k-partition reduction + exact Opt-EdgeCut on the supernode "
            "tree; exact at or below max_reduced_nodes (default 10)"
        ),
    )

    def __init__(
        self,
        tree: NavigationTree,
        probs: ProbabilityModel,
        max_reduced_nodes: int = 10,
        params: Optional[CostParams] = None,
        reuse_memo: bool = True,
        decision_cache: Optional[Dict[ComponentKey, CutDecision]] = None,
    ):
        """
        Args:
            tree: the query's navigation tree.
            probs: its probability model.
            max_reduced_nodes: N, the largest tree Opt-EdgeCut may see.
            params: cost-model unit costs.
            reuse_memo: harvest Opt-EdgeCut's per-component memo so later
                EXPANDs on sub-components are answered from cache (the
                paper's §VI-B reuse).  Cached decisions keep the EXPLORE
                normalization of the solve that produced them; disable to
                re-normalize every component independently instead.
            decision_cache: optional externally-owned decision store,
                keyed by the component's ``(root, excluded)`` interval
                key.  Decisions are deterministic per (tree, probs, params,
                options), so concurrent sessions of the same query and
                options can pass a shared dict and answer each other's
                EXPANDs from cache — the pipeline shares one per query
                among its default-option sessions.
        """
        if max_reduced_nodes < 2:
            raise ValueError("max_reduced_nodes must be at least 2")
        self.tree = tree
        self.probs = probs
        self.max_reduced_nodes = max_reduced_nodes
        self.params = params or CostParams()
        self.last_reduced_size = 0
        # Once Opt-EdgeCut runs on a component, the best cuts of every
        # sub-component it can produce are already in its memo; the paper
        # exploits this so subsequent EXPANDs need no re-optimization
        # (§VI-B).  We harvest those memo entries into a decision cache.
        self.reuse_memo = reuse_memo
        self._decision_cache: Dict[ComponentKey, CutDecision] = (
            decision_cache if decision_cache is not None else {}
        )
        self.cache_hits = 0

    @property
    def decision_cache_size(self) -> int:
        """Entries in the (possibly shared) decision cache."""
        return len(self._decision_cache)

    # ------------------------------------------------------------------
    def choose_cut(self, active: ActiveTree, node: int) -> CutDecision:
        return self.best_cut(active.interval(node), node)

    def best_cut(
        self, component: Union[Component, AbstractSet[int]], root: int
    ) -> CutDecision:
        """Best EdgeCut for one component (no active tree required).

        ``component`` is an interval :class:`Component` or a member set
        (converted); decisions are cached by its ``(root, excluded)`` key.
        """
        component = as_component(self.tree, component, root)
        size = len(component)
        if size <= 1:
            return CutDecision(cut=(), reduced_size=size)
        cached = self._decision_cache.get(component.key) if self.reuse_memo else None
        if cached is not None:
            self.cache_hits += 1
            self.last_reduced_size = cached.reduced_size
            return cached
        if size <= self.max_reduced_nodes:
            cut_tree = CutTree.from_component(self.tree, self.probs, component, root)
            solver = OptEdgeCut(cut_tree, self.probs, self.params)
            solved = solver.solve()
            if self.reuse_memo:
                self._harvest_memo(cut_tree, solver)
            cut = tuple(
                (cut_tree.payload[p], cut_tree.payload[c]) for p, c in solved.cut
            )
            self.last_reduced_size = len(cut_tree)
            return CutDecision(
                cut=cut,
                reduced_size=len(cut_tree),
                expected_cost=solved.expected_cost,
            )
        reduced, part_roots = self._reduce(component, root)
        solved = OptEdgeCut(reduced, self.probs, self.params).solve()
        cut = tuple(
            (self.tree.parent(part_roots[c]), part_roots[c]) for _, c in solved.cut
        )
        self.last_reduced_size = len(reduced)
        decision = CutDecision(
            cut=cut,
            reduced_size=len(reduced),
            expected_cost=solved.expected_cost,
        )
        if self.reuse_memo:
            # Reduced solves are deterministic per component; remembering
            # them makes repeated expansions of the same component (replays,
            # Monte-Carlo walks, concurrent sessions) O(1).
            self._decision_cache[component.key] = decision
        return decision

    # ------------------------------------------------------------------
    def _harvest_memo(self, cut_tree: CutTree, solver: OptEdgeCut) -> None:
        """Store every exactly-solved sub-component's decision for reuse.

        Solver memo keys are CutTree-index bitmasks over *plain*
        components (each index is one navigation-tree node here), so each
        mask translates to an interval key directly: its lowest index is
        the sub-component root (the CutTree lists nodes parents first),
        and its excluded positions are the members' navigation-tree
        children that are not members.
        """
        tree = self.tree
        payload = cut_tree.payload
        index_of = {node: index for index, node in enumerate(payload)}
        # Per CutTree index: navigation-tree children as (position, index
        # or -1 when outside the solved component).
        kids = [
            [
                (tree.position(child), index_of.get(child, -1))
                for child in tree.children(node)
            ]
            for node in payload
        ]
        for mask, best in solver.memo_masks():
            members = []
            remaining = mask
            while remaining:
                low = remaining & -remaining
                members.append(low.bit_length() - 1)
                remaining ^= low
            excluded = sorted(
                position
                for member in members
                for position, index in kids[member]
                if index < 0 or not mask >> index & 1
            )
            cut = tuple((payload[p], payload[c]) for p, c in best.cut)
            self._decision_cache[(payload[members[0]], tuple(excluded))] = CutDecision(
                cut=cut,
                reduced_size=len(members),
                expected_cost=best.expected_cost,
            )

    # ------------------------------------------------------------------
    def _reduce(
        self, component: Union[Component, AbstractSet[int]], root: int
    ) -> Tuple[CutTree, List[int]]:
        """Partition the component and build the reduced supernode tree.

        Returns the CutTree plus, per supernode index, the original concept
        node rooting that partition (used to map cuts back).
        """
        tree = self.tree
        # The model's arrays index nodes by the tree's preorder positions.
        probs = self.probs
        preorder = tree.preorder_array()
        positions, parents, depths = tree.component_arrays(
            as_component(tree, component, root)
        )
        members, ends = partition_with_limit(
            parents,
            depths,
            probs.result_counts[positions],
            preorder[positions],
            self.max_reduced_nodes,
        )
        # The root's part comes last; it becomes CutTree node 0 and the
        # rest keep their order.
        sizes = np.diff(ends, prepend=0)
        members, sizes = np.roll(members, sizes[-1]), np.roll(sizes, 1)
        offsets = np.cumsum(sizes) - sizes
        part = np.repeat(np.arange(len(sizes)), sizes)
        part_of = np.empty(len(members), dtype=np.int64)
        part_of[members] = part
        heads = members[offsets]
        part_roots = preorder[positions[heads]].tolist()
        children: List[List[int]] = [[] for _ in part_roots]
        for index, parent_part in enumerate(part_of[parents[heads[1:]]].tolist(), 1):
            children[parent_part].append(index)

        # Supernode statistics over the arrays: EXPLORE sums run over each
        # part's members in ascending id order, member histograms keep
        # the partition's member order, and each part's citations are
        # one gather of its results-CSR rows.
        flat = positions[members]
        ids = preorder[flat]
        # The trailing zero keeps the last part's pairwise summation
        # blocks, hence its float bits, as they were pinned.
        explore = np.add.reduceat(
            np.append(probs.explore_mass[flat[np.lexsort((ids, part))]], 0.0), offsets
        ).tolist()
        counts = probs.result_counts[flat]
        starts = np.cumsum(counts) - counts
        citations = tree.result_values_array()[
            np.repeat(tree.result_offsets_array()[flat] - starts, counts)
            + np.arange(int(counts.sum()))
        ]
        reduced = CutTree(
            children=children,
            results=np.split(citations, starts[offsets[1:]]),
            explore=explore,
            member_counts=np.split(counts, offsets[1:]),
            payload=np.split(ids, offsets[1:]),
        )
        return reduced, part_roots
