"""Paged static navigation — the "more button" baseline (paper footnote 2).

The paper remarks that showing "a few children at a time and displaying a
'more' button" does not considerably change static navigation's cost,
because executing "more" incurs an action cost too.  This strategy makes
that claim testable: an EXPAND on a node reveals at most ``page_size`` of
its children; expanding the same node again reveals the next page.

Within the EdgeCut machinery this falls out naturally: each page cuts the
next ``page_size`` root→child edges of the node's component, and the
remaining children stay inside the (shrinking) upper component whose
``>>>`` hyperlink plays the role of the "more" button.
"""

from __future__ import annotations

from typing import Tuple

from repro.core.edgecut import Component, component_children, rank_by_subtree_results
from repro.core.navigation_tree import NavigationTree
from repro.core.strategy import CutDecision, ExpansionStrategy, SolverCapabilities

__all__ = ["PagedStaticNavigation"]


class PagedStaticNavigation(ExpansionStrategy):
    """Static navigation that reveals children one fixed-size page at a time."""

    name = "paged-static"
    capabilities = SolverCapabilities(
        name="paged_static",
        optimal=False,
        exact_below=None,
        max_nodes=None,
        estimates_cost=False,
        cost_bound=None,
        description='static navigation paged through a fixed-size "more" button',
    )

    def __init__(self, tree: NavigationTree, page_size: int = 5):
        if page_size < 1:
            raise ValueError("page_size must be at least 1")
        self.tree = tree
        self.page_size = page_size

    def best_cut(self, component: Component) -> CutDecision:
        """Cut the next page of root→child edges, ranked by citation count.

        Children still inside the component are the not-yet-shown ones;
        like GoPubMed, pages are ordered by descending subtree citation
        count so the heaviest categories surface first.
        """
        root = component.root
        children = component_children(self.tree, component, root)
        ranked = rank_by_subtree_results(self.tree, children)
        page = ranked[: self.page_size]
        cut: Tuple[Tuple[int, int], ...] = tuple((root, child) for child in page)
        return CutDecision(cut=cut, reduced_size=len(component))
