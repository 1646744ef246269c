"""Opt-EdgeCut lifted into the :class:`ExpansionStrategy` protocol.

The bitmask engine operates on :class:`~repro.core.opt_edgecut.CutTree`
index trees, not on navigation-tree components, so it cannot drive a
:class:`~repro.core.session.NavigationSession` directly.  This wrapper
closes that gap: each EXPAND lifts the component into a ``CutTree``,
solves it exactly, and maps the winning cut back through the payload —
exactly the plumbing :class:`~repro.core.heuristic.HeuristicReducedOpt`
performs for components small enough to skip the reduction.

The wrapper refuses components above ``MAX_OPT_NODES`` (Opt-EdgeCut is
exponential); the solver registry advertises that cap through its
capability record so callers can fall back to the heuristic instead of
tripping the engine's guard.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.core.cost_model import CostParams
from repro.core.edgecut import Component
from repro.core.navigation_tree import NavigationTree
from repro.core.opt_edgecut import MAX_OPT_NODES, CutTree, OptEdgeCut
from repro.core.probabilities import ProbabilityModel
from repro.core.strategy import CutDecision, ExpansionStrategy, SolverCapabilities

__all__ = ["OptEdgeCutStrategy"]

Edge = Tuple[int, int]


class OptEdgeCutStrategy(ExpansionStrategy):
    """Exact EXPAND strategy: every component solved with Opt-EdgeCut."""

    name = "opt-edgecut"
    capabilities = SolverCapabilities(
        name="opt_edgecut",
        optimal=True,
        exact_below=MAX_OPT_NODES,
        max_nodes=MAX_OPT_NODES,
        estimates_cost=True,
        cost_bound=None,
        description="bitmask Opt-EdgeCut on every component (exponential; size-capped)",
    )

    def __init__(
        self,
        tree: NavigationTree,
        probs: ProbabilityModel,
        params: Optional[CostParams] = None,
    ):
        self.tree = tree
        self.probs = probs
        self.params = params or CostParams()

    def best_cut(self, component: Component) -> CutDecision:
        """Optimal EdgeCut for one component (no active tree required).

        Raises:
            ValueError: component larger than the engine's size cap.
        """
        if len(component) <= 1:
            return CutDecision(cut=(), reduced_size=len(component))
        cut_tree = CutTree.from_component(self.tree, self.probs, component)
        solved = OptEdgeCut(cut_tree, self.probs, self.params).solve()
        cut: Tuple[Edge, ...] = tuple(
            (cut_tree.payload[p], cut_tree.payload[c]) for p, c in solved.cut
        )
        return CutDecision(
            cut=cut,
            reduced_size=len(cut_tree),
            expected_cost=solved.expected_cost,
        )
