"""GoPubMed-style navigation (paper §IX).

GoPubMed — the closest system to BioNav — "lists a predefined list of
high-level MeSH concepts, such as Chemicals and Drugs, Biological Sciences
and so on, and for each one of them displays the top-10 concepts.  After a
node expansion, its children are revealed and ranked by the number of
their attached citations."

This strategy reproduces that behaviour on our navigation trees:

* expanding the **root** reveals the predefined top-level categories that
  are present in the query's navigation tree (all of them — the fixed
  category bar), and
* expanding any **other** concept reveals its top-``k`` children by
  subtree citation count (default 10), with repeat expansions paging in
  the rest (the interface's "more" affordance).

The paper could not compare against GoPubMed directly (different
indexing); like the paper, we use it as a static-family baseline whose
navigation cost the benchmarks contrast with BioNav's.
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple

from repro.core.edgecut import Component, component_children, rank_by_subtree_results
from repro.core.navigation_tree import NavigationTree
from repro.core.strategy import CutDecision, ExpansionStrategy, SolverCapabilities

__all__ = ["GoPubMedNavigation"]


class GoPubMedNavigation(ExpansionStrategy):
    """Fixed top-level categories + top-k children per expansion."""

    name = "gopubmed"
    capabilities = SolverCapabilities(
        name="gopubmed",
        optimal=False,
        exact_below=None,
        max_nodes=None,
        estimates_cost=False,
        cost_bound=None,
        description="fixed top-level categories + top-k children per expansion",
    )

    def __init__(
        self,
        tree: NavigationTree,
        top_k: int = 10,
        categories: Optional[Iterable[int]] = None,
    ):
        """
        Args:
            tree: the query's navigation tree.
            top_k: children revealed per expansion of a non-root concept.
            categories: node ids of the predefined top-level categories;
                defaults to the navigation tree's root children (the
                MeSH top-level concepts that survived the embedding).
        """
        if top_k < 1:
            raise ValueError("top_k must be at least 1")
        self.tree = tree
        self.top_k = top_k
        if categories is None:
            self._categories: Tuple[int, ...] = tuple(tree.children(tree.root))
        else:
            category_set = list(categories)
            for node in category_set:
                if node not in tree:
                    raise ValueError("category %r is not in the navigation tree" % node)
            self._categories = tuple(category_set)

    @property
    def categories(self) -> Tuple[int, ...]:
        """The predefined top-level category bar."""
        return self._categories

    def best_cut(self, component: Component) -> CutDecision:
        """Category bar at the root; top-k children elsewhere."""
        root = component.root
        if root == self.tree.root:
            # The fixed category bar: reveal every predefined category
            # still hidden inside the root component.
            cut = tuple(
                (self.tree.parent(category), category)
                for category in self._categories
                if category in component and category != root
            )
            if cut:
                return CutDecision(cut=cut, reduced_size=len(component))
            # Categories all revealed: fall through to top-k paging.
        children = component_children(self.tree, component, root)
        ranked = rank_by_subtree_results(self.tree, children)
        cut = tuple((root, child) for child in ranked[: self.top_k])
        return CutDecision(cut=cut, reduced_size=len(component))
