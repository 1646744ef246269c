"""Stress-scenario workloads beyond the Table I defaults.

The Table I workload pins one corpus regime; the paper's claims should
survive others.  Each scenario here materializes a single-query workload
in a deliberately skewed regime:

* ``deep_hierarchy`` — a narrow, deep MeSH (targets 7+ levels down), the
  regime where static navigation needs many EXPANDs;
* ``high_duplication`` — annotations smeared over many concepts per
  citation (the §V worst case for cut selection);
* ``low_selectivity`` — an ice-nucleation-style target with minimal
  L(n), the paper's hardest EXPLORE-probability case;
* ``tiny_result`` — a result set below the EXPAND threshold, where
  navigation should barely expand at all.

``benchmarks/bench_scenarios.py`` runs the BioNav-vs-static comparison in
every regime.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.hierarchy.concept import ConceptHierarchy
from repro.hierarchy.generator import (
    HierarchyGenerator,
    HierarchyShape,
    mesh_2008_hierarchy,
)
from repro.workload.builder import Workload, build_workload
from repro.workload.queries import WorkloadQuery

__all__ = ["SCENARIOS", "build_scenario", "paper_scale_hierarchy", "scenario_names"]


def paper_scale_hierarchy() -> ConceptHierarchy:
    """The deterministic ~48k-concept MeSH-2008-shaped hierarchy.

    The paper-scale regime the substrate benchmarks build against
    (``benchmarks/bench_substrate.py``); same seed → identical hierarchy,
    so substrate manifests built over it are reproducible.  Too large for
    the in-memory scenario workloads above — pair it with
    :mod:`repro.substrate` instead of :func:`build_workload`.

    Delegates to :func:`~repro.hierarchy.generator.mesh_2008_hierarchy`
    and inherits its cache-identity contract: repeated calls return the
    same (immutable) object, not a fresh copy.
    """
    return mesh_2008_hierarchy()


def _deep_hierarchy() -> Workload:
    # Narrow, deep tree: targets sit 6-8 levels down.
    shape = HierarchyShape.deep(target_size=1800)
    hierarchy = HierarchyGenerator(shape, seed=41).generate()
    query = WorkloadQuery(
        keyword="deep scenario",
        n_citations=220,
        target_label="Deep Scenario Target",
        target_depth=min(8, hierarchy.height()),
        n_topics=3,
        target_share=0.35,
        seed=411,
    )
    return _build_with_hierarchy(hierarchy, query)


def _high_duplication() -> Workload:
    query = WorkloadQuery(
        keyword="duplication scenario",
        n_citations=260,
        target_label="Duplication Scenario Target",
        target_depth=4,
        n_topics=6,
        target_share=0.30,
        seed=421,
    )
    # More index concepts per citation → heavier duplication.
    return build_workload(
        hierarchy_size=1500,
        seed=42,
        queries=[query],
        background_citations=40,
    )


def _low_selectivity() -> Workload:
    query = WorkloadQuery(
        keyword="rare target scenario",
        n_citations=240,
        target_label="Rare Scenario Target",
        target_depth=3,
        n_topics=4,
        target_share=0.01,
        seed=431,
    )
    return build_workload(
        hierarchy_size=1500, seed=43, queries=[query], background_citations=40
    )


def _tiny_result() -> Workload:
    query = WorkloadQuery(
        keyword="tiny scenario",
        n_citations=20,
        target_label="Tiny Scenario Target",
        target_depth=3,
        n_topics=2,
        target_share=0.5,
        seed=441,
    )
    return build_workload(
        hierarchy_size=1200, seed=44, queries=[query], background_citations=40
    )


def _build_with_hierarchy(hierarchy, query: WorkloadQuery) -> Workload:
    """Materialize one query over a pre-built hierarchy."""
    import random

    from repro.corpus.generator import CorpusGenerator, TopicSpec
    from repro.corpus.medline import MedlineDatabase
    from repro.eutils.client import EntrezClient
    from repro.search.engine import SearchEngine
    from repro.storage.database import BioNavDatabase
    from repro.workload.builder import BuiltQuery, _build_anchors, _ensure_target_coverage, _pick_target

    generator = CorpusGenerator(hierarchy, seed=query.seed)
    medline = MedlineDatabase(background_counts=generator.background_counts(scale=50_000))
    rng = random.Random(query.seed)
    target = _pick_target(hierarchy, rng, query.target_depth, set())
    anchors = _build_anchors(hierarchy, rng, query, target)
    citations = generator.generate_topic(
        TopicSpec(keyword=query.keyword, n_citations=query.n_citations, anchors=anchors)
    )
    citations = _ensure_target_coverage(citations, target, min_count=2, rng=rng)
    medline.add_all(citations)
    medline.add_all(generator.generate_background(40))
    hierarchy = hierarchy.relabeled({target: query.target_label})
    database = BioNavDatabase.build(hierarchy, medline)
    engine = SearchEngine(database.store, database.index)
    return Workload(
        hierarchy,
        medline,
        database,
        EntrezClient(database.store, engine),
        [BuiltQuery(spec=query, target_node=target, anchors=anchors)],
    )


SCENARIOS: Dict[str, Callable[[], Workload]] = {
    "deep_hierarchy": _deep_hierarchy,
    "high_duplication": _high_duplication,
    "low_selectivity": _low_selectivity,
    "tiny_result": _tiny_result,
}


def scenario_names() -> List[str]:
    """The available stress-scenario names."""
    return sorted(SCENARIOS)


def build_scenario(name: str) -> Workload:
    """Materialize one named scenario workload.

    Raises:
        KeyError: unknown scenario name.
    """
    return SCENARIOS[name]()
