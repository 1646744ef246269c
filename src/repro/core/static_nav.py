"""Static navigation baseline (paper §VIII-A).

Current systems — GoPubMed, Amazon-style category browsers — expand a node
by revealing *all of its children*, ranked by citation count, regardless of
the query.  In EdgeCut terms, expanding a component rooted at ``n`` cuts
every edge from ``n`` to its children inside the component, leaving the
upper component as the singleton ``{n}``.

The paper notes that showing a few children at a time with a "more" button
does not change the navigation cost materially, since clicking "more" costs
an action too; the plain show-all-children form is what the evaluation
compares against.
"""

from __future__ import annotations

from typing import Tuple

from repro.core.edgecut import Component, component_children
from repro.core.navigation_tree import NavigationTree
from repro.core.strategy import CutDecision, ExpansionStrategy, SolverCapabilities

__all__ = ["StaticNavigation"]


class StaticNavigation(ExpansionStrategy):
    """Expand = reveal all children of the expanded concept."""

    name = "static"
    capabilities = SolverCapabilities(
        name="static_nav",
        optimal=False,
        exact_below=None,
        max_nodes=None,
        estimates_cost=False,
        cost_bound=None,
        description="show-all-children baseline (GoPubMed-family static expansion)",
    )

    def __init__(self, tree: NavigationTree):
        self.tree = tree

    def best_cut(self, component: Component) -> CutDecision:
        """Cut every root→child edge of the component."""
        root = component.root
        children = component_children(self.tree, component, root)
        cut: Tuple[Tuple[int, int], ...] = tuple((root, child) for child in children)
        return CutDecision(cut=cut, reduced_size=len(component))
