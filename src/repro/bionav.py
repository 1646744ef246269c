"""The BioNav system facade (paper §VII, Fig. 7).

Ties the off-line and on-line halves together:

* **Off-line**: :meth:`BioNav.build` populates the BioNav database from a
  concept hierarchy and a MEDLINE snapshot (the corpus substrate —
  associations in both directions and MEDLINE-wide concept counts — plus
  the keyword index).
* **On-line**: :meth:`BioNav.search` resolves a keyword query through the
  staged :class:`~repro.pipeline.NavigationPipeline` — ESearch result
  set, navigation tree, probability model, live session — with every
  stage cached by content key and the expansion strategy selected by
  name from the :class:`~repro.pipeline.SolverRegistry`
  (``Heuristic-ReducedOpt`` by default, exactly as the deployed
  system's Navigation Subsystem).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional, Sequence, Tuple

from repro.core.cost_model import CostParams
from repro.core.navigation_tree import NavigationTree
from repro.core.probabilities import ProbabilityModel
from repro.core.session import NavigationSession
from repro.corpus.citation import DocSummary
from repro.corpus.medline import MedlineDatabase
from repro.eutils.client import EntrezClient
from repro.hierarchy.concept import ConceptHierarchy
from repro.pipeline.pipeline import NavigationPipeline
from repro.pipeline.registry import SolverRegistry, default_registry
from repro.search.engine import SearchEngine
from repro.storage.database import BioNavDatabase
from repro.substrate.store import MmapStore

__all__ = ["BioNavQuery", "BioNav"]


@dataclass
class BioNavQuery:
    """One resolved query: result IDs, navigation tree, and session."""

    keyword: str
    pmids: Tuple[int, ...]
    tree: NavigationTree
    probs: ProbabilityModel
    session: NavigationSession

    @property
    def result_count(self) -> int:
        """Number of citations in the query result."""
        return len(self.pmids)


class BioNav:
    """End-to-end BioNav: database + eutils + navigation subsystem.

    All on-line work flows through :attr:`pipeline`; repeated searches
    of one keyword share the cached result set, navigation tree, and
    EdgeCut plans.
    """

    def __init__(
        self,
        database: BioNavDatabase,
        entrez: EntrezClient,
        max_reduced_nodes: int = 10,
        params: Optional[CostParams] = None,
        registry: Optional[SolverRegistry] = None,
    ):
        self.database = database
        self.entrez = entrez
        self.max_reduced_nodes = max_reduced_nodes
        self.params = params or CostParams()
        self.registry = registry or default_registry()

    @cached_property
    def pipeline(self) -> NavigationPipeline:
        """The pipeline :meth:`search` runs, built on first use (a
        ``ServingRuntime`` serves through its own and never builds it)."""
        return NavigationPipeline(
            self.database,
            self.entrez,
            registry=self.registry,
            params=self.params,
            max_reduced_nodes=self.max_reduced_nodes,
        )

    @classmethod
    def build(
        cls,
        hierarchy: ConceptHierarchy,
        medline: MedlineDatabase,
        max_reduced_nodes: int = 10,
        params: Optional[CostParams] = None,
    ) -> "BioNav":
        """Run the off-line pre-processing and stand up the on-line system.

        ``medline`` is the build input only: ESearch runs over the
        database's own store and keyword index, and ESummary/EFetch read
        the store's display columns.
        """
        database = BioNavDatabase.build(hierarchy, medline)
        engine = SearchEngine(database.store, database.index)
        entrez = EntrezClient(database.store, engine)
        return cls(database, entrez, max_reduced_nodes=max_reduced_nodes, params=params)

    @classmethod
    def from_store(
        cls,
        store: MmapStore,
        hierarchy: Optional[ConceptHierarchy] = None,
        max_reduced_nodes: int = 10,
        params: Optional[CostParams] = None,
    ) -> "BioNav":
        """Stand up the on-line system over a pre-built corpus store.

        The substrate path: no extraction pass and no text index — the
        store directory *is* the offline pre-processing output, queries
        are ``[mh]`` concept queries, and every process opening the same
        mmap directory shares one page-cached corpus.

        Args:
            store: the corpus :class:`~repro.substrate.store.MmapStore`.
            hierarchy: defaults to the hierarchy captured in the store's
                build manifest.
        """
        database = BioNavDatabase.from_store(store, hierarchy=hierarchy)
        engine = SearchEngine(store, hierarchy=database.hierarchy)
        entrez = EntrezClient(store, engine)
        return cls(database, entrez, max_reduced_nodes=max_reduced_nodes, params=params)

    # ------------------------------------------------------------------
    # On-line operation
    # ------------------------------------------------------------------
    def search(self, keyword: str, strategy: str = "heuristic") -> BioNavQuery:
        """Resolve a keyword query and open a navigation session.

        Args:
            keyword: the user's query.
            strategy: a registered solver name — ``"heuristic"``
                (BioNav, the default), ``"static"`` (the GoPubMed-style
                baseline), or any other name in
                :meth:`SolverRegistry.names`.

        Raises:
            ValueError: unknown strategy name.
        """
        nav = self.pipeline.nav_tree(keyword)
        session = self.pipeline.activate(nav, solver=strategy)
        return BioNavQuery(
            keyword=keyword,
            pmids=self.pipeline.results(keyword).pmids,
            tree=nav.tree,
            probs=nav.probs,
            session=session,
        )

    def summaries(self, pmids: Sequence[int]) -> List[DocSummary]:
        """SHOWRESULTS display records, via the (simulated) ESummary."""
        if not pmids:
            return []
        return self.entrez.esummary(pmids)
