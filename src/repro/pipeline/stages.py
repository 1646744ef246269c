"""The three cached pipeline stages: key schemes and builders.

Each stage is a stateless descriptor pairing a ``name`` — its identity
in the :class:`StageCache` and in ``GET /api/stats`` — with a
deterministic content-key scheme ``key(...)`` and a pure builder
``build(...)`` producing the stage's artifact from its inputs.

Keys chain down the dataflow (deployment digest → results → navigation
tree → cut), so invalidation is structural: serve another corpus and
every key changes with it; change one query's result set and only that
query's tree and cuts re-build.  The
:class:`~repro.pipeline.pipeline.NavigationPipeline` wires these stages
to a cache and a solver registry; nothing here holds state.
"""

from __future__ import annotations

from typing import Tuple

from repro.core.active_tree import component_stats
from repro.core.cost_model import CostParams
from repro.core.edgecut import Component
from repro.core.navigation_tree import NavigationTree
from repro.core.probabilities import ProbabilityModel
from repro.core.strategy import ExpansionStrategy
from repro.eutils.client import EntrezClient
from repro.pipeline.artifacts import (
    CutPlan,
    NavTreeArtifact,
    ResultSet,
    component_digest,
    content_key,
)
from repro.storage.database import BioNavDatabase

__all__ = ["params_key", "SearchStage", "NavTreeStage", "CutStage"]


def params_key(params: CostParams) -> str:
    """Deterministic digest of the cost-model unit costs."""
    return content_key(
        "params",
        repr((params.expand_cost, params.reveal_cost, params.citation_cost)),
    )


class SearchStage:
    """Keyword query → :class:`ResultSet` via the (simulated) ESearch."""

    name = "results"

    @staticmethod
    def key(deployment: str, query: str) -> str:
        """Chain the deployment digest with the query string.

        ``deployment`` is :meth:`BioNavDatabase.content_digest`, which
        covers the hierarchy and the corpus store's whole build.
        """
        return content_key("results", deployment, query)

    @staticmethod
    def build(entrez: EntrezClient, query: str, key: str) -> ResultSet:
        """Resolve the query to its full PMID list via ESearch."""
        pmids: Tuple[int, ...] = tuple(entrez.esearch_all(query))
        return ResultSet(query=query, pmids=pmids, content_key=key)


class NavTreeStage:
    """Result set embedded in the hierarchy → :class:`NavTreeArtifact`."""

    name = "nav_tree"

    @staticmethod
    def key(deployment: str, results: ResultSet) -> str:
        """Chain the deployment digest with the result-set key."""
        return content_key("nav_tree", deployment, results.content_key)

    @staticmethod
    def build(
        database: BioNavDatabase, results: ResultSet, key: str
    ) -> NavTreeArtifact:
        """Embed the result set in the hierarchy and estimate probabilities."""
        store = database.store
        # The store hands CSR annotation buffers straight to the
        # vectorized embedding, and its batch LT lookup serves the whole
        # tree at once.
        tree = NavigationTree.from_store(database.hierarchy, store, results.pmids)
        probs = ProbabilityModel(tree, store)
        return NavTreeArtifact(
            query=results.query,
            tree=tree,
            probs=probs,
            # No view ranks the root row, so its relevance is left unset.
            root_stats=component_stats(Component(tree, tree.root)),
            content_key=key,
        )


class CutStage:
    """One component + solver → :class:`CutPlan` (the EXPAND decision).

    Cached: EdgeCut decisions are deterministic per (navigation tree,
    component, root, solver, solver options, cost params), so one
    session's EXPAND work answers every session of the query with the
    same options — including replays of the same component after a
    BACKTRACK.
    """

    name = "cut"

    @staticmethod
    def key(
        nav: NavTreeArtifact,
        solver: str,
        cost_key: str,
        component: Component,
        options: str,
    ) -> str:
        """Identify a cut by tree, solver, options, cost params, and component.

        The component's ``(root, excluded)`` interval key includes the
        root; ``options`` names the solver options
        (:meth:`~repro.pipeline.pipeline.NavigationPipeline.options_key`).
        """
        return content_key(
            "cut", nav.content_key, solver, options, cost_key,
            component_digest(component),
        )

    @staticmethod
    def build(
        nav: NavTreeArtifact,
        strategy: ExpansionStrategy,
        component: Component,
        solver: str,
        key: str,
    ) -> CutPlan:
        """Solve one component; the plan carries its cut's components' stats."""
        decision = strategy.best_cut(component)
        upper, lowers = component.cut(decision.cut)
        # A root-rooted upper component is the root row, which no view
        # ranks: its relevance is left for a first read to fill in.
        stats = tuple(
            component_stats(c, None if c.root == nav.tree.root else nav.probs)
            for c in (upper, *lowers.values())
        )
        return CutPlan(solver, component.root, decision, key, stats)

