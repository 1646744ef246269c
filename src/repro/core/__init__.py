"""The paper's contribution: navigation trees, EdgeCuts, cost model, algorithms."""

from repro.core.active_tree import ActiveTree, VisNode
from repro.core.cost_model import CostLedger, CostParams, cost_improves, costs_equal
from repro.core.edgecut import Component, is_valid_edgecut
from repro.core.evaluation import expected_strategy_cost
from repro.core.exact import OptEdgeCutStrategy
from repro.core.gopubmed import GoPubMedNavigation
from repro.core.heuristic import HeuristicReducedOpt
from repro.core.imperfect import ImperfectOutcome, navigate_with_errors
from repro.core.montecarlo import WalkOutcome, estimate_expected_cost, sample_walk
from repro.core.navigation_tree import NavigationTree
from repro.core.opt_edgecut import BestCut, CutTree, OptEdgeCut
from repro.core.paged_static import PagedStaticNavigation
from repro.core.probabilities import ProbabilityModel
from repro.core.relevance import ranked_visualization, relevance_of
from repro.core.session import ExpandOutcome, NavigationSession
from repro.core.simulator import ExpandRecord, NavigationOutcome, navigate_to_target
from repro.core.static_nav import StaticNavigation
from repro.core.strategy import CutDecision, ExpansionStrategy, SolverCapabilities

__all__ = [
    "ActiveTree",
    "BestCut",
    "Component",
    "CostLedger",
    "CostParams",
    "CutDecision",
    "CutTree",
    "ExpandOutcome",
    "ExpandRecord",
    "ExpansionStrategy",
    "GoPubMedNavigation",
    "HeuristicReducedOpt",
    "ImperfectOutcome",
    "NavigationOutcome",
    "NavigationSession",
    "NavigationTree",
    "PagedStaticNavigation",
    "OptEdgeCut",
    "OptEdgeCutStrategy",
    "ProbabilityModel",
    "SolverCapabilities",
    "StaticNavigation",
    "VisNode",
    "WalkOutcome",
    "cost_improves",
    "costs_equal",
    "estimate_expected_cost",
    "expected_strategy_cost",
    "is_valid_edgecut",
    "navigate_to_target",
    "navigate_with_errors",
    "ranked_visualization",
    "sample_walk",
    "relevance_of",
]
