"""The staged navigation pipeline facade.

:class:`NavigationPipeline` is the one way the reproduction turns a
keyword query into navigable state: hierarchy snapshot → result set →
navigation tree → active tree → EdgeCut, each stage produced by its
descriptor in :mod:`repro.pipeline.stages`, cached per content key in a
:class:`~repro.pipeline.cache.StageCache`, and solved through the
:class:`~repro.pipeline.registry.SolverRegistry`.  The BioNav facade,
the CLI, the serving runtime, and the workload harness all hold one of
these instead of wiring stages by hand.

What is shared vs per-session:

* **hierarchy** — one snapshot per deployment, shared by every query;
* **results**, **nav_tree** — shared by every session of a query;
* **active_tree** — per-session (never cached; still timed);
* **cut** — shared by every session of a query that uses the same
  solver options: an EXPAND's plan is keyed by (tree, component,
  solver, solver options, cost params), so repeated expansions replay
  cached plans.

Sessions opened through the pipeline run a :class:`PipelineStrategy`:
the registry-built solver wrapped so each EXPAND routes through the cut
stage's cache.  That is what makes EXPAND latency a per-stage cache
concern instead of a per-session recomputation.
"""

from __future__ import annotations

import itertools
import time
from typing import Dict, List, Optional, Tuple

from repro.core.active_tree import ActiveTree
from repro.core.cost_model import CostParams
from repro.core.edgecut import Component
from repro.core.strategy import CutDecision, ExpansionStrategy
from repro.eutils.client import EntrezClient
from repro.obs import Metrics
from repro.pipeline.artifacts import (
    ActiveTreeArtifact,
    CutPlan,
    HierarchySnapshot,
    NavTreeArtifact,
    ResultSet,
)
from repro.pipeline.cache import StageCache
from repro.pipeline.registry import SolverRegistry, default_registry
from repro.pipeline.stages import (
    ALL_STAGES,
    ActiveTreeStage,
    CutStage,
    HierarchyStage,
    NavTreeStage,
    SearchStage,
    params_key,
)
from repro.storage.database import BioNavDatabase

__all__ = ["PipelineStrategy", "NavigationPipeline"]


class PipelineStrategy(ExpansionStrategy):
    """A registry-built solver routed through the pipeline's cut stage.

    ``choose_expansion`` resolves the expanded component, asks the
    pipeline for its :class:`CutPlan` (cache hit or a fresh solve by the
    wrapped strategy), and returns the plan's decision and the created
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

    def choose_cut(self, active: ActiveTree, node: int) -> CutDecision:
        """EdgeCut for ``node``'s component, via the cut-stage cache."""
        return self.plan(active.component(node)).decision

    def choose_expansion(self, active: ActiveTree, node: int) -> Tuple[CutDecision, Tuple]:
        """The cut-stage plan's cut and created components' statistics."""
        plan = self.plan(active.component(node))
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
        cache: externally-owned stage cache (share one across facades to
            share stage artifacts); a private one is built when omitted.
        capacities: per-stage entry bounds for the private cache
            (ignored when ``cache`` is given).
        l2: optional cross-process artifact store wired into the private
            cache (ignored when ``cache`` is given); see
            :class:`~repro.pipeline.cache.StageCache`.
        metrics: registry the private cache counts into (ignored when
            ``cache`` is given); the cache makes its own when omitted.
    """

    def __init__(
        self,
        database: BioNavDatabase,
        entrez: EntrezClient,
        registry: Optional[SolverRegistry] = None,
        params: Optional[CostParams] = None,
        max_reduced_nodes: int = 10,
        cache: Optional[StageCache] = None,
        capacities: Optional[Dict[str, int]] = None,
        l2: Optional[object] = None,
        metrics: Optional[Metrics] = None,
    ):
        self.database = database
        self.entrez = entrez
        self.registry = registry or default_registry()
        self.params = params or CostParams()
        self.max_reduced_nodes = max_reduced_nodes
        self.cache = cache or StageCache(capacities, l2=l2, metrics=metrics)
        for stage in ALL_STAGES:
            self.cache.declare(stage.name, stage.cached)
        self._cost_key = params_key(self.params)
        self._activations = itertools.count(1)

    # ------------------------------------------------------------------
    # Stages
    # ------------------------------------------------------------------
    def snapshot(self) -> HierarchySnapshot:
        """Stage 1: the deployment's hierarchy snapshot (built once)."""
        return self.cache.get_or_build(
            HierarchyStage.name,
            HierarchyStage.key(),
            lambda: HierarchyStage.build(self.database),
        )

    def results(self, query: str) -> ResultSet:
        """Stage 2: resolve ``query`` to its citation ids (cached)."""
        snapshot = self.snapshot()
        key = SearchStage.key(snapshot, query)
        return self.cache.get_or_build(
            SearchStage.name,
            key,
            lambda: SearchStage.build(self.entrez, query, key),
        )

    def nav_tree(self, query: str) -> NavTreeArtifact:
        """Stage 3: the query's navigation tree + probabilities (cached)."""
        snapshot = self.snapshot()
        results = self.results(query)
        key = NavTreeStage.key(snapshot, results)
        return self.cache.get_or_build(
            NavTreeStage.name,
            key,
            lambda: NavTreeStage.build(snapshot, results, key),
        )

    def activate(
        self,
        nav: NavTreeArtifact,
        solver: str = "heuristic",
        metrics: Optional[Metrics] = None,
        **options: object,
    ) -> ActiveTreeArtifact:
        """Stage 4: open one session over a navigation tree (per-session).

        The session's strategy is registry-built and wrapped in a
        :class:`PipelineStrategy`, so its EXPANDs run through the cut
        stage.  Never cached — each call is a fresh session — but timed
        as a run of the stage.  ``metrics`` is the registry the session
        records its EXPAND decisions in.
        """
        started = time.perf_counter()
        canonical = self.registry.resolve(solver)
        strategy = self.strategy(nav, canonical, **options)
        artifact = ActiveTreeStage.build(
            nav,
            canonical,
            strategy,
            self.params,
            metrics,
            ActiveTreeStage.key(nav, canonical, next(self._activations)),
        )
        self.cache.record_run(ActiveTreeStage.name, time.perf_counter() - started)
        return artifact

    def plan_cut(
        self,
        nav: NavTreeArtifact,
        component: Component,
        solver: str,
        inner: Optional[ExpansionStrategy] = None,
        **options: object,
    ) -> CutPlan:
        """Stage 5: the EdgeCut plan for one component (cached).

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
    ) -> ActiveTreeArtifact:
        """Run stages 1–4 for ``query`` and hand back the live session."""
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

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def stage_stats(self) -> Dict[str, Dict[str, float]]:
        """Per-stage cache/latency counters (see :meth:`StageCache.snapshot`)."""
        return self.cache.snapshot()

    def cached_trees(self) -> List[NavTreeArtifact]:
        """The navigation-tree artifacts currently cached, LRU first."""
        return [value for _, value in self.cache.items(NavTreeStage.name)]
