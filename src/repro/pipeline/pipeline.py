"""The staged navigation pipeline facade.

:class:`NavigationPipeline` is the one way the reproduction turns a
keyword query into navigable state, in the paper's three online steps
(§VII): ESearch result set → navigation tree → EdgeCut, each stage
produced by its descriptor in :mod:`repro.pipeline.stages`, cached per
content key in a :class:`~repro.pipeline.cache.StageCache`, and solved
through the :class:`~repro.pipeline.registry.SolverRegistry`.  The
BioNav facade, the CLI, the serving runtime, and the workload harness
all hold one of these instead of wiring stages by hand.

What is shared vs per-session:

* **results**, **nav_tree** — shared by every session of a query;
* **cut** — shared by every session of a query that uses the same
  solver options: an EXPAND's plan is keyed by (tree, component,
  solver, solver options, cost params), so repeated expansions replay
  cached plans;
* the :class:`~repro.core.session.NavigationSession` (its active tree
  and cost ledger) — per-session, opened by :meth:`activate` and never
  cached.

Sessions opened through the pipeline run a :class:`PipelineStrategy`:
the registry-built solver wrapped so each EXPAND routes through the cut
stage's cache.  That is what makes EXPAND latency a per-stage cache
concern instead of a per-session recomputation.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.core.cost_model import CostParams
from repro.core.edgecut import Component
from repro.core.session import NavigationSession
from repro.core.strategy import CutDecision, ExpansionStrategy
from repro.eutils.client import EntrezClient
from repro.obs import Metrics
from repro.pipeline.artifacts import CutPlan, NavTreeArtifact, ResultSet
from repro.pipeline.cache import StageCache
from repro.pipeline.registry import SolverRegistry, default_registry
from repro.pipeline.stages import CutStage, NavTreeStage, SearchStage, params_key
from repro.storage.database import BioNavDatabase

__all__ = ["PipelineStrategy", "NavigationPipeline"]


class PipelineStrategy(ExpansionStrategy):
    """A registry-built solver routed through the pipeline's cut stage.

    ``choose_expansion`` asks the pipeline for the expanded component's
    :class:`CutPlan` (cache hit or a fresh solve by the wrapped
    strategy), and returns the plan's decision and the created
    components' statistics.  Wrapping — rather than
    subclassing each solver — keeps caching a pipeline concern and the
    solvers pure.
    """

    def __init__(
        self,
        pipeline: "NavigationPipeline",
        nav: NavTreeArtifact,
        solver: str,
        inner: ExpansionStrategy,
        options: Dict[str, object],
    ):
        self.pipeline = pipeline
        self.nav = nav
        self.solver = solver
        self.inner = inner
        self.options = options
        # Present as the wrapped solver: simulators, profiles, and the
        # web layer report strategy names.
        self.name = inner.name
        self.capabilities = inner.capabilities

    def choose_expansion(self, component: Component) -> Tuple[CutDecision, Tuple]:
        """The cut-stage plan's cut and created components' statistics."""
        plan = self.plan(component)
        return plan.decision, plan.stats

    def best_cut(self, component: Component) -> CutDecision:
        """Cached-or-solved cut for one component (see :class:`CutStage`)."""
        return self.plan(component).decision

    def plan(self, component: Component) -> CutPlan:
        """The component's :class:`CutPlan`, cached or freshly solved."""
        return self.pipeline.plan_cut(
            self.nav, component, self.solver, inner=self.inner, **self.options
        )


class NavigationPipeline:
    """Staged query flow over one BioNav database.

    Args:
        database: the off-line BioNav database.
        entrez: the (simulated) Entrez client resolving keyword queries.
        registry: solver registry; the default holds the paper's six
            solvers.
        params: cost-model unit costs applied to every session and cut.
        max_reduced_nodes: Heuristic-ReducedOpt's N (paper default 10).
        capacities: per-stage entry bounds for the stage cache.
        l2: optional cross-process artifact store wired into the stage
            cache; see :class:`~repro.pipeline.cache.StageCache`.
        metrics: registry the stage cache counts into; the cache makes
            its own when omitted.
    """

    def __init__(
        self,
        database: BioNavDatabase,
        entrez: EntrezClient,
        registry: Optional[SolverRegistry] = None,
        params: Optional[CostParams] = None,
        max_reduced_nodes: int = 10,
        capacities: Optional[Dict[str, int]] = None,
        l2: Optional[object] = None,
        metrics: Optional[Metrics] = None,
    ):
        self.database = database
        self.entrez = entrez
        self.registry = registry or default_registry()
        self.params = params or CostParams()
        self.max_reduced_nodes = max_reduced_nodes
        self.cache = StageCache(capacities, l2=l2, metrics=metrics)
        for stage in (SearchStage, NavTreeStage, CutStage):
            self.cache.declare(stage.name)
        # The deployment's identity, which every result-set and
        # navigation-tree key chains (and through them every cut key).
        self.deployment_key = database.content_digest()
        self._cost_key = params_key(self.params)

    # ------------------------------------------------------------------
    # Stages
    # ------------------------------------------------------------------
    def results(self, query: str) -> ResultSet:
        """Stage 1: resolve ``query`` to its citation ids (cached)."""
        key = SearchStage.key(self.deployment_key, query)
        return self.cache.get_or_build(
            SearchStage.name,
            key,
            lambda: SearchStage.build(self.entrez, query, key),
        )

    def nav_tree(self, query: str) -> NavTreeArtifact:
        """Stage 2: the query's navigation tree + probabilities (cached)."""
        results = self.results(query)
        key = NavTreeStage.key(self.deployment_key, results)
        return self.cache.get_or_build(
            NavTreeStage.name,
            key,
            lambda: NavTreeStage.build(self.database, results, key),
        )

    def activate(
        self,
        nav: NavTreeArtifact,
        solver: str = "heuristic",
        metrics: Optional[Metrics] = None,
        **options: object,
    ) -> NavigationSession:
        """Open one live session over a navigation tree (never cached).

        The session's strategy is registry-built and wrapped in a
        :class:`PipelineStrategy`, so its EXPANDs run through the cut
        stage.  ``metrics`` is the registry the session records its
        EXPAND decisions in.
        """
        return NavigationSession(
            nav.tree,
            self.strategy(nav, solver, **options),
            params=self.params,
            metrics=metrics,
            root_stats=nav.root_stats,
        )

    def plan_cut(
        self,
        nav: NavTreeArtifact,
        component: Component,
        solver: str,
        inner: Optional[ExpansionStrategy] = None,
        **options: object,
    ) -> CutPlan:
        """Stage 3: the EdgeCut plan for one component (cached).

        Args:
            nav: the component's navigation-tree artifact.
            component: the expanded component (its root is the expanded
                concept).
            solver: solver name (canonical or alias).
            inner: the session's already-built bare strategy (built with
                ``options``); built from the registry when omitted
                (one-off callers).
            options: the session's solver options, as given to
                :meth:`activate`; they are part of the plan's key.
        """
        canonical = self.registry.resolve(solver)
        key = CutStage.key(
            nav, canonical, self._cost_key, component, self.options_key(**options)
        )

        def build() -> CutPlan:
            strategy = inner
            if strategy is None:
                strategy = self._bare_strategy(nav, canonical, **options)
            return CutStage.build(nav, strategy, component, canonical, key)

        return self.cache.get_or_build(CutStage.name, key, build)

    # ------------------------------------------------------------------
    # Composition helpers
    # ------------------------------------------------------------------
    def open_session(
        self,
        query: str,
        solver: str = "heuristic",
        metrics: Optional[Metrics] = None,
        **options: object,
    ) -> NavigationSession:
        """Build ``query``'s navigation tree and open a session over it."""
        return self.activate(
            self.nav_tree(query), solver=solver, metrics=metrics, **options
        )

    def strategy(
        self, nav: NavTreeArtifact, solver: str, **options: object
    ) -> PipelineStrategy:
        """A pipeline-routed strategy for ``nav`` (cut-stage cached)."""
        canonical = self.registry.resolve(solver)
        inner = self._bare_strategy(nav, canonical, **options)
        return PipelineStrategy(self, nav, canonical, inner, options)

    def options_key(self, **options: object) -> str:
        """The cut-key part naming a session's solver options.

        Merged over the pipeline's defaults, so a default value given
        explicitly names the default plans.
        """
        return repr(sorted(self._solver_options(options).items()))

    def _solver_options(self, options: Dict[str, object]) -> Dict[str, object]:
        return {"max_reduced_nodes": self.max_reduced_nodes, **options}

    def _bare_strategy(
        self, nav: NavTreeArtifact, canonical: str, **options: object
    ) -> ExpansionStrategy:
        """Registry-build the underlying solver with pipeline defaults."""
        return self.registry.create(
            canonical, nav.tree, nav.probs, params=self.params,
            **self._solver_options(options),
        )
