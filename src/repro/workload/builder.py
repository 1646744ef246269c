"""Workload materialization: hierarchy + corpus + database for Table I.

:func:`build_workload` turns the declarative Table I specs into a fully
operational BioNav deployment: a synthetic MeSH-like hierarchy with the
paper's target concepts grafted in, a topic-clustered citation corpus in
which each keyword retrieves exactly its query result, the off-line BioNav
database, and a simulated Entrez client.  :meth:`Workload.prepare` then
runs the online phase for one query and hands back everything the
experiments need (navigation tree, probability model, target node).
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.corpus.citation import Citation
from repro.corpus.generator import CorpusGenerator, TopicSpec
from repro.corpus.medline import MedlineDatabase
from repro.core.navigation_tree import NavigationTree
from repro.core.probabilities import ProbabilityModel
from repro.core.session import NavigationSession
from repro.core.strategy import ExpansionStrategy
from repro.eutils.client import EntrezClient
from repro.hierarchy.concept import ConceptHierarchy
from repro.hierarchy.generator import generate_hierarchy
from repro.pipeline.pipeline import NavigationPipeline
from repro.search.engine import SearchEngine
from repro.storage.database import BioNavDatabase
from repro.workload.queries import TABLE_I_QUERIES, WorkloadQuery

__all__ = ["BuiltQuery", "PreparedQuery", "Workload", "build_workload"]


@dataclass(frozen=True)
class BuiltQuery:
    """One workload query after corpus materialization."""

    spec: WorkloadQuery
    target_node: int
    anchors: Tuple[Tuple[int, float], ...]


@dataclass(frozen=True)
class PreparedQuery:
    """Everything the online phase produces for one query."""

    spec: WorkloadQuery
    target_node: int
    pmids: Tuple[int, ...]
    tree: NavigationTree
    probs: ProbabilityModel


class Workload:
    """A materialized Table I deployment."""

    def __init__(
        self,
        hierarchy: ConceptHierarchy,
        medline: MedlineDatabase,
        database: BioNavDatabase,
        entrez: EntrezClient,
        queries: Sequence[BuiltQuery],
    ):
        self.hierarchy = hierarchy
        self.medline = medline
        self.database = database
        self.entrez = entrez
        self.queries = list(queries)
        self.pipeline = NavigationPipeline(database, entrez)

    def built_query(self, keyword: str) -> BuiltQuery:
        """The materialized query for ``keyword`` (KeyError if absent)."""
        for built in self.queries:
            if built.spec.keyword == keyword:
                return built
        raise KeyError("no built query with keyword %r" % keyword)

    def prepare(self, keyword: str) -> PreparedQuery:
        """Run the online phase: ESearch → navigation tree → probabilities.

        Both stages run through :attr:`pipeline`, so repeated
        preparations of one keyword (common in the experiment drivers)
        share the cached result set and navigation tree.
        """
        built = self.built_query(keyword)
        results = self.pipeline.results(keyword)
        nav = self.pipeline.nav_tree(keyword)
        return PreparedQuery(
            spec=built.spec,
            target_node=built.target_node,
            pmids=results.pmids,
            tree=nav.tree,
            probs=nav.probs,
        )

    def prepare_all(self) -> List[PreparedQuery]:
        """Run the online phase for every workload query."""
        return [self.prepare(built.spec.keyword) for built in self.queries]

    def strategy(
        self, prepared: PreparedQuery, name: str, **options: object
    ) -> ExpansionStrategy:
        """A registry-built strategy for one prepared query's tree.

        The pipeline wraps it so EXPANDs route through the cut-stage
        cache; pass solver options (``max_reduced_nodes``, ``top_k``,
        ``page_size``, …) through ``options``.
        """
        nav = self.pipeline.nav_tree(prepared.spec.keyword)
        return self.pipeline.strategy(nav, name, **options)

    def open_session(
        self, keyword: str, solver: str = "heuristic", **options: object
    ) -> NavigationSession:
        """A live session over one workload keyword's navigation tree."""
        return self.pipeline.open_session(keyword, solver=solver, **options)


def build_workload(
    hierarchy_size: int = 4000,
    seed: int = 7,
    queries: Optional[Sequence[WorkloadQuery]] = None,
    background_citations: int = 200,
    background_count_scale: int = 50_000,
) -> Workload:
    """Materialize the workload end to end.

    Args:
        hierarchy_size: synthetic hierarchy size (the real MeSH has ~48k
            concepts; 4k keeps the full pipeline laptop-fast while
            preserving the bushy-top shape — scale up freely).
        seed: master RNG seed.
        queries: Table I specs by default.
        background_citations: keyword-free filler citations.
        background_count_scale: MEDLINE-wide count of the largest concept.
    """
    specs = list(queries) if queries is not None else list(TABLE_I_QUERIES)
    hierarchy = generate_hierarchy(hierarchy_size, seed=seed)
    corpus_gen = CorpusGenerator(hierarchy, seed=seed)
    medline = MedlineDatabase(
        background_counts=corpus_gen.background_counts(scale=background_count_scale)
    )

    used_targets: set = set()
    target_labels: Dict[int, str] = {}
    built_queries: List[BuiltQuery] = []
    for spec in specs:
        rng = random.Random(spec.seed * 7919 + seed)
        target = _pick_target(hierarchy, rng, spec.target_depth, used_targets)
        used_targets.add(target)
        target_labels[target] = spec.target_label
        anchors = _build_anchors(hierarchy, rng, spec, target)
        topic = TopicSpec(
            keyword=spec.keyword,
            n_citations=spec.n_citations,
            anchors=anchors,
        )
        citations = corpus_gen.generate_topic(topic)
        citations = _ensure_target_coverage(
            citations, target, min_count=2, rng=rng
        )
        medline.add_all(citations)
        built_queries.append(
            BuiltQuery(spec=spec, target_node=target, anchors=anchors)
        )

    medline.add_all(corpus_gen.generate_background(background_citations))
    hierarchy = hierarchy.relabeled(target_labels)
    database = BioNavDatabase.build(hierarchy, medline)
    engine = SearchEngine(database.store, database.index)
    entrez = EntrezClient(database.store, engine)
    return Workload(hierarchy, medline, database, entrez, built_queries)


# ---------------------------------------------------------------------------
# Internals
# ---------------------------------------------------------------------------
def _pick_target(
    hierarchy: ConceptHierarchy, rng: random.Random, depth: int, used: set
) -> int:
    """A random unused concept at the requested depth (or deepest available)."""
    for candidate_depth in range(depth, 1, -1):
        candidates = [
            n
            for n in hierarchy.iter_dfs()
            if hierarchy.depth(n) == candidate_depth and n not in used
        ]
        if candidates:
            return rng.choice(candidates)
    raise ValueError("hierarchy too small to place a workload target")


def _build_anchors(
    hierarchy: ConceptHierarchy,
    rng: random.Random,
    spec: WorkloadQuery,
    target: int,
) -> Tuple[Tuple[int, float], ...]:
    """Topic anchors: the target, its top-level branch, plus other fields."""
    path = hierarchy.path_to_root(target)
    # The ancestor of the target just below the root (its top-level branch).
    branch = path[-2] if len(path) >= 2 else target
    anchors: List[Tuple[int, float]] = [(target, max(spec.target_share, 0.01))]
    remaining = max(1.0 - spec.target_share, 0.05)
    branch_weight = remaining * 0.4
    anchors.append((branch, branch_weight))
    n_others = max(spec.n_topics - 1, 1)
    other_weight = (remaining - branch_weight) / n_others
    top_level = [
        n
        for n in hierarchy.children(hierarchy.root)
        if n != branch and hierarchy.subtree_size(n) >= 5
    ]
    rng.shuffle(top_level)
    for other in top_level[:n_others]:
        anchors.append((other, max(other_weight, 0.01)))
    return tuple(anchors)


def _ensure_target_coverage(
    citations: List[Citation], target: int, min_count: int, rng: random.Random
) -> List[Citation]:
    """Guarantee the target concept is attached to ≥ ``min_count`` citations.

    The Zipf sampling can miss very-low-share targets entirely (the paper's
    "ice nucleation" target has only 2 attached citations); patch a couple
    of citations so the target always exists in the navigation tree.
    """
    have = sum(1 for c in citations if target in c.index_concepts)
    if have >= min_count:
        return citations
    need = min_count - have
    patched = list(citations)
    candidates = [
        i for i, c in enumerate(patched) if target not in c.index_concepts
    ]
    for i in rng.sample(candidates, min(need, len(candidates))):
        citation = patched[i]
        patched[i] = dataclasses.replace(
            citation,
            index_concepts=tuple(sorted(set(citation.index_concepts) | {target})),
        )
    return patched
