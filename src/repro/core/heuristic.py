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

The strategy is a pure function of (tree, probs, params, N, component).
§VI-B also suggests answering later EXPANDs from the Opt-EdgeCut memo of
an earlier solve, but a memo entry keeps the EXPLORE normalization of the
solve that produced it, while §IV normalizes each EXPAND over the
component being expanded — and the argmin depends on it.  So every
component is solved under its own normalization, and remembering plans is
the pipeline cut stage's job (:class:`repro.pipeline.stages.CutStage`).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.core.cost_model import CostParams
from repro.core.edgecut import Component
from repro.core.navigation_tree import NavigationTree
from repro.core.opt_edgecut import CutTree, OptEdgeCut
from repro.core.partition import partition_with_limit
from repro.core.probabilities import ProbabilityModel
from repro.core.strategy import CutDecision, ExpansionStrategy, SolverCapabilities

__all__ = ["HeuristicReducedOpt"]


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
    ):
        """
        Args:
            tree: the query's navigation tree.
            probs: its probability model.
            max_reduced_nodes: N, the largest tree Opt-EdgeCut may see.
            params: cost-model unit costs.
        """
        if max_reduced_nodes < 2:
            raise ValueError("max_reduced_nodes must be at least 2")
        self.tree = tree
        self.probs = probs
        self.max_reduced_nodes = max_reduced_nodes
        self.params = params or CostParams()

    # ------------------------------------------------------------------
    def best_cut(self, component: Component) -> CutDecision:
        """Best EdgeCut for one component (no active tree required).

        Every call solves afresh under the component's own EXPLORE
        normalization; caching plans is the pipeline cut stage's job.
        """
        size = len(component)
        if size <= 1:
            return CutDecision(cut=(), reduced_size=size)
        if size <= self.max_reduced_nodes:
            cut_tree = CutTree.from_component(self.tree, self.probs, component)
            heads = cut_tree.payload
        else:
            cut_tree, heads = self._reduce(component)
        solved = OptEdgeCut(cut_tree, self.probs, self.params).solve()
        # Cutting the edge into a (super)node cuts the navigation-tree
        # edge above its head concept.
        return CutDecision(
            cut=tuple((self.tree.parent(heads[c]), heads[c]) for _, c in solved.cut),
            reduced_size=len(cut_tree),
            expected_cost=solved.expected_cost,
        )

    # ------------------------------------------------------------------
    def _reduce(self, component: Component) -> Tuple[CutTree, List[int]]:
        """Partition the component and build the reduced supernode tree.

        Returns the CutTree plus, per supernode index, the original concept
        node rooting that partition (used to map cuts back).
        """
        tree = self.tree
        # The model's arrays index nodes by the tree's preorder positions.
        probs = self.probs
        positions, parents, subtree_sizes = tree.component_arrays(component)
        ids = tree.preorder_array()[positions]
        members, ends = partition_with_limit(
            parents,
            subtree_sizes,
            probs.result_counts[positions],
            ids,
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
        part_roots = ids[heads].tolist()
        children: List[List[int]] = [[] for _ in part_roots]
        for index, parent_part in enumerate(part_of[parents[heads[1:]]].tolist(), 1):
            children[parent_part].append(index)

        # Supernode statistics over the arrays: EXPLORE sums run over each
        # part's members in ascending id order (one key ranks by part, then
        # id), member histograms keep the partition's member order, and
        # each part's citation ranks are one gather of its CSR rows.
        flat = positions[members]
        ids = ids[members]
        by_part = np.argsort(part * (int(ids.max()) + 1) + ids)
        # The trailing zero keeps the last part's pairwise summation
        # blocks, hence its float bits, as they were pinned.
        explore = np.add.reduceat(
            np.append(probs.explore_mass[flat[by_part]], 0.0), offsets
        ).tolist()
        counts = probs.result_counts[flat]
        starts = np.cumsum(counts) - counts
        ranks = tree.result_values_array()[
            np.repeat(tree.result_offsets_array()[flat] - starts, counts)
            + np.arange(int(counts.sum()))
        ]
        reduced = CutTree(
            children=children,
            results=np.split(ranks, starts[offsets[1:]]),
            explore=explore,
            member_counts=np.split(counts, offsets[1:]),
            payload=np.split(ids, offsets[1:]),
        )
        return reduced, part_roots
