"""The unified solver registry.

Every expansion strategy the reproduction ships — Heuristic-ReducedOpt,
the static and GoPubMed-style baselines, paged static, and the exact
Opt-EdgeCut engine — is selected here *by name*, with its
:class:`~repro.core.strategy.SolverCapabilities` record attached.  Call
sites (the BioNav facade, the CLI, the serving runtime, the workload
harness, benchmarks) never import solver modules; they ask the registry.
The ``solver-via-registry`` analyzer rule makes that layering
machine-checked: outside ``repro.core`` and this module, importing a
solver module directly is an error.

This module is the single sanctioned importer of solver modules outside
``repro.core``; keep every new solver behind a factory here.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.core.cost_model import CostParams
from repro.core.exact import OptEdgeCutStrategy
from repro.core.gopubmed import GoPubMedNavigation
from repro.core.heuristic import HeuristicReducedOpt
from repro.core.navigation_tree import NavigationTree
from repro.core.paged_static import PagedStaticNavigation
from repro.core.probabilities import ProbabilityModel
from repro.core.static_nav import StaticNavigation
from repro.core.strategy import ExpansionStrategy, SolverCapabilities

__all__ = ["SolverFactory", "SolverRegistry", "default_registry"]

#: Builds a configured strategy: (tree, probs, params, **options).
#: Factories ignore options they do not understand, so one pipeline can
#: pass its full solver configuration to whichever solver is selected.
SolverFactory = Callable[..., ExpansionStrategy]


class SolverRegistry:
    """Name → (factory, capabilities) for every expansion strategy.

    Registration happens at composition time (module import, test
    setup); lookups afterwards are read-only and therefore safe to
    share across serving threads.
    """

    def __init__(self) -> None:
        self._factories: Dict[str, SolverFactory] = {}
        self._capabilities: Dict[str, SolverCapabilities] = {}
        self._aliases: Dict[str, str] = {}

    # ------------------------------------------------------------------
    def register(
        self,
        factory: SolverFactory,
        capabilities: SolverCapabilities,
        aliases: Tuple[str, ...] = (),
    ) -> None:
        """Add one solver under its capabilities' canonical name.

        Raises:
            ValueError: duplicate canonical name or alias.
        """
        name = capabilities.name
        if name in self._factories or name in self._aliases:
            raise ValueError("solver %r already registered" % name)
        self._factories[name] = factory
        self._capabilities[name] = capabilities
        for alias in aliases:
            if alias in self._aliases or alias in self._factories:
                raise ValueError("solver alias %r already registered" % alias)
            self._aliases[alias] = name

    def resolve(self, name: str) -> str:
        """Canonical name for ``name`` (which may be an alias).

        Raises:
            ValueError: unknown solver name.
        """
        canonical = self._aliases.get(name, name)
        if canonical not in self._factories:
            raise ValueError(
                "unknown solver %r (expected one of %s)"
                % (name, ", ".join(self.names()))
            )
        return canonical

    def __contains__(self, name: str) -> bool:
        return name in self._factories or name in self._aliases

    def names(self) -> Tuple[str, ...]:
        """Every canonical solver name, sorted."""
        return tuple(sorted(self._factories))

    def all_names(self) -> Tuple[str, ...]:
        """Every accepted name — canonical names plus aliases, sorted."""
        return tuple(sorted((*self._factories, *self._aliases)))

    def capabilities(self, name: str) -> SolverCapabilities:
        """The capability record registered under ``name``."""
        return self._capabilities[self.resolve(name)]

    def catalog(self) -> List[SolverCapabilities]:
        """Every capability record, sorted by canonical name."""
        return [self._capabilities[name] for name in self.names()]

    def optimal_names(self) -> Tuple[str, ...]:
        """Canonical names of solvers whose cuts are provably optimal."""
        return tuple(
            name for name in self.names() if self._capabilities[name].optimal
        )

    # ------------------------------------------------------------------
    def create(
        self,
        name: str,
        tree: NavigationTree,
        probs: ProbabilityModel,
        params: Optional[CostParams] = None,
        **options: object,
    ) -> ExpansionStrategy:
        """Build a configured strategy for one navigation tree.

        Args:
            name: canonical solver name or alias.
            tree: the query's navigation tree.
            probs: its probability model.
            params: cost-model unit costs (solvers that model cost).
            options: solver-specific configuration — e.g.
                ``max_reduced_nodes`` (heuristic),
                ``top_k`` (gopubmed), ``page_size`` (paged_static).
                Unknown options are ignored by the selected factory.

        Raises:
            ValueError: unknown solver name.
        """
        return self._factories[self.resolve(name)](tree, probs, params, **options)


# ---------------------------------------------------------------------------
# Default registry: the paper's solvers
# ---------------------------------------------------------------------------
def _make_heuristic(
    tree: NavigationTree,
    probs: ProbabilityModel,
    params: Optional[CostParams] = None,
    **options: object,
) -> ExpansionStrategy:
    return HeuristicReducedOpt(
        tree,
        probs,
        max_reduced_nodes=int(options.get("max_reduced_nodes", 10)),  # type: ignore[arg-type]
        params=params,
    )


def _make_static(
    tree: NavigationTree,
    probs: ProbabilityModel,
    params: Optional[CostParams] = None,
    **options: object,
) -> ExpansionStrategy:
    return StaticNavigation(tree)


def _make_gopubmed(
    tree: NavigationTree,
    probs: ProbabilityModel,
    params: Optional[CostParams] = None,
    **options: object,
) -> ExpansionStrategy:
    return GoPubMedNavigation(
        tree,
        top_k=int(options.get("top_k", 10)),  # type: ignore[arg-type]
        categories=options.get("categories"),  # type: ignore[arg-type]
    )


def _make_paged_static(
    tree: NavigationTree,
    probs: ProbabilityModel,
    params: Optional[CostParams] = None,
    **options: object,
) -> ExpansionStrategy:
    return PagedStaticNavigation(
        tree, page_size=int(options.get("page_size", 5))  # type: ignore[arg-type]
    )


def _make_opt(
    tree: NavigationTree,
    probs: ProbabilityModel,
    params: Optional[CostParams] = None,
    **options: object,
) -> ExpansionStrategy:
    return OptEdgeCutStrategy(tree, probs, params=params)


_DEFAULT: Optional[SolverRegistry] = None


def default_registry() -> SolverRegistry:
    """The process-wide registry holding the paper's five solvers.

    Built once on first use; callers wanting an isolated registry (tests
    registering experimental solvers) construct their own
    :class:`SolverRegistry` instead of mutating this one.
    """
    global _DEFAULT
    if _DEFAULT is None:
        registry = SolverRegistry()
        registry.register(
            _make_heuristic, HeuristicReducedOpt.capabilities, aliases=("heuristic-reducedopt",)
        )
        registry.register(
            _make_static, StaticNavigation.capabilities, aliases=("static",)
        )
        registry.register(_make_gopubmed, GoPubMedNavigation.capabilities)
        registry.register(
            _make_paged_static,
            PagedStaticNavigation.capabilities,
            aliases=("paged-static",),
        )
        registry.register(
            _make_opt, OptEdgeCutStrategy.capabilities, aliases=("opt", "opt-edgecut")
        )
        _DEFAULT = registry
    return _DEFAULT
