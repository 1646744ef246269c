"""The five pipeline stages: key schemes and builders.

Each stage is a stateless descriptor pairing three things:

* ``name`` — the stage's identity in the :class:`StageCache` and in
  ``GET /api/stats``;
* ``cached`` — whether equal content keys may share one artifact (the
  active-tree stage is per-session state and is deliberately not
  cached);
* ``key(...)`` / ``build(...)`` — the deterministic content-key scheme
  and the pure builder producing the stage's artifact from its inputs.

Keys chain down the dataflow (hierarchy → results → navigation tree →
cut), so invalidation is structural: change the hierarchy and every
downstream key changes with it; change one query's result set and only
that query's tree and cuts re-build.  The
:class:`~repro.pipeline.pipeline.NavigationPipeline` wires these stages
to a cache and a solver registry; nothing here holds state.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.core.active_tree import component_stats
from repro.core.cost_model import CostParams
from repro.core.edgecut import Component
from repro.core.navigation_tree import NavigationTree
from repro.core.probabilities import ProbabilityModel
from repro.core.session import NavigationSession
from repro.core.strategy import ExpansionStrategy
from repro.eutils.client import EntrezClient
from repro.obs import Metrics
from repro.pipeline.artifacts import (
    ActiveTreeArtifact,
    CutPlan,
    HierarchySnapshot,
    NavTreeArtifact,
    ResultSet,
    component_digest,
    content_key,
)
from repro.storage.database import BioNavDatabase

__all__ = [
    "params_key",
    "HierarchyStage",
    "SearchStage",
    "NavTreeStage",
    "ActiveTreeStage",
    "CutStage",
    "ALL_STAGES",
]


def params_key(params: CostParams) -> str:
    """Deterministic digest of the cost-model unit costs."""
    return content_key(
        "params",
        repr((params.expand_cost, params.reveal_cost, params.citation_cost)),
    )


class HierarchyStage:
    """Concept hierarchy + off-line database → :class:`HierarchySnapshot`."""

    name = "hierarchy"
    cached = True

    @staticmethod
    def key() -> str:
        """One entry per deployment: a pipeline serves one database."""
        return "deployment"

    @staticmethod
    def build(database: BioNavDatabase) -> HierarchySnapshot:
        """Wrap the database with its deployment content identity.

        The key derives from the store's build manifest digest (see
        :meth:`BioNavDatabase.content_digest`).
        """
        return HierarchySnapshot(
            database=database,
            hierarchy=database.hierarchy,
            content_key=database.content_digest(),
        )


class SearchStage:
    """Keyword query → :class:`ResultSet` via the (simulated) ESearch."""

    name = "results"
    cached = True

    @staticmethod
    def key(snapshot: HierarchySnapshot, query: str) -> str:
        """Chain the hierarchy key with the query string."""
        return content_key("results", snapshot.content_key, query)

    @staticmethod
    def build(entrez: EntrezClient, query: str, key: str) -> ResultSet:
        """Resolve the query to its full PMID list via ESearch."""
        pmids: Tuple[int, ...] = tuple(entrez.esearch_all(query))
        return ResultSet(query=query, pmids=pmids, content_key=key)


class NavTreeStage:
    """Result set embedded in the hierarchy → :class:`NavTreeArtifact`."""

    name = "nav_tree"
    cached = True

    @staticmethod
    def key(snapshot: HierarchySnapshot, results: ResultSet) -> str:
        """Chain the hierarchy key with the result-set key."""
        return content_key("nav_tree", snapshot.content_key, results.content_key)

    @staticmethod
    def build(
        snapshot: HierarchySnapshot, results: ResultSet, key: str
    ) -> NavTreeArtifact:
        """Embed the result set in the hierarchy and estimate probabilities."""
        store = snapshot.database.store
        # The store hands CSR annotation buffers straight to the
        # vectorized embedding, and its batch LT lookup serves the whole
        # tree at once.
        tree = NavigationTree.from_store(snapshot.hierarchy, store, results.pmids)
        probs = ProbabilityModel(tree, store)
        return NavTreeArtifact(
            query=results.query,
            tree=tree,
            probs=probs,
            # No view ranks the root row, so its relevance is left unset.
            root_stats=component_stats(Component(tree, tree.root)),
            content_key=key,
        )


class ActiveTreeStage:
    """Navigation tree + solver → one session's :class:`ActiveTreeArtifact`.

    Not cached: the active tree is the one mutable, per-user artifact of
    the dataflow.  The pipeline still times activations through the
    stage cache as a run, so the stats surface covers it.
    """

    name = "active_tree"
    cached = False

    @staticmethod
    def key(nav: NavTreeArtifact, solver: str, ordinal: int) -> str:
        """Unique per activation: nav key + solver + ordinal."""
        return content_key("active", nav.content_key, solver, str(ordinal))

    @staticmethod
    def build(
        nav: NavTreeArtifact,
        solver: str,
        strategy: ExpansionStrategy,
        params: Optional[CostParams],
        metrics: Optional[Metrics],
        key: str,
    ) -> ActiveTreeArtifact:
        """Open one live navigation session over the shared tree."""
        session = NavigationSession(
            nav.tree, strategy, params=params, metrics=metrics, root_stats=nav.root_stats
        )
        return ActiveTreeArtifact(
            nav=nav, solver=solver, session=session, content_key=key
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
    cached = True

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
        decision = strategy.best_cut(component)  # type: ignore[attr-defined]
        upper, lowers = component.cut(decision.cut)
        # A root-rooted upper component is the root row, which no view
        # ranks: its relevance is left for a first read to fill in.
        stats = tuple(
            component_stats(c, None if c.root == nav.tree.root else nav.probs)
            for c in (upper, *lowers.values())
        )
        return CutPlan(solver, component.root, decision, key, stats)


#: The dataflow, in order.
ALL_STAGES = (HierarchyStage, SearchStage, NavTreeStage, ActiveTreeStage, CutStage)
