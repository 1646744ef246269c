"""BioNav reproduction (ICDE 2009).

Cost-aware dynamic navigation of biomedical query results over a MeSH-like
concept hierarchy: navigation trees, EdgeCut-based expansion, the TOPDOWN
cost model, Opt-EdgeCut and Heuristic-ReducedOpt, plus every substrate the
paper's system depends on (simulated MEDLINE, Entrez eutils, storage and
search engines).

Quickstart::

    from repro import BioNav, build_workload

    workload = build_workload()
    bionav = BioNav(workload.database, workload.entrez)
    query = bionav.search("prothymosin")
    query.session.expand(query.tree.root)
    for row in query.session.visualize():
        print("  " * row.depth + row.label, row.count)
"""

from repro.bionav import BioNav, BioNavQuery
from repro.core import (
    ActiveTree,
    BestCut,
    CostLedger,
    CostParams,
    CutDecision,
    CutTree,
    ExpansionStrategy,
    HeuristicReducedOpt,
    NavigationOutcome,
    NavigationSession,
    NavigationTree,
    OptEdgeCut,
    PagedStaticNavigation,
    ProbabilityModel,
    SolverCapabilities,
    StaticNavigation,
    VisNode,
    expected_strategy_cost,
    navigate_to_target,
    ranked_visualization,
)
from repro.corpus.citation import Citation, DocSummary
from repro.corpus.medline import MedlineDatabase
from repro.eutils.client import EntrezClient
from repro.hierarchy.concept import Concept, ConceptHierarchy
from repro.hierarchy.generator import generate_hierarchy
from repro.hierarchy.mesh import paper_fragment
from repro.pipeline.pipeline import NavigationPipeline, PipelineStrategy
from repro.pipeline.registry import SolverRegistry, default_registry
from repro.storage.database import BioNavDatabase
from repro.workload.builder import Workload, build_workload
from repro.workload.queries import TABLE_I_QUERIES, WorkloadQuery

__version__ = "1.0.0"

__all__ = [
    "ActiveTree",
    "BestCut",
    "BioNav",
    "BioNavDatabase",
    "BioNavQuery",
    "Citation",
    "Concept",
    "ConceptHierarchy",
    "CostLedger",
    "CostParams",
    "CutDecision",
    "CutTree",
    "DocSummary",
    "EntrezClient",
    "ExpansionStrategy",
    "HeuristicReducedOpt",
    "MedlineDatabase",
    "NavigationOutcome",
    "NavigationPipeline",
    "NavigationSession",
    "NavigationTree",
    "OptEdgeCut",
    "PagedStaticNavigation",
    "PipelineStrategy",
    "ProbabilityModel",
    "SolverCapabilities",
    "SolverRegistry",
    "StaticNavigation",
    "TABLE_I_QUERIES",
    "VisNode",
    "Workload",
    "WorkloadQuery",
    "build_workload",
    "default_registry",
    "expected_strategy_cost",
    "generate_hierarchy",
    "navigate_to_target",
    "paper_fragment",
    "ranked_visualization",
]
