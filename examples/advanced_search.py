"""Advanced search: free text and ``[mh]`` concept terms over the corpus.

Run with::

    python examples/advanced_search.py

Demonstrates the query surface of the one search engine — conjunctive
free text with TF-IDF ranking, intersected with ``[mh]`` MeSH-concept
terms given as a label (bare or quoted), a concept uid or a node id —
then the §IX refinement suggestions, and finally feeds a mixed
text-and-concept result set into a BioNav navigation, showing that the
navigation machinery is agnostic to how the result set was produced.
"""

from __future__ import annotations

from repro.core.heuristic import HeuristicReducedOpt
from repro.core.navigation_tree import NavigationTree
from repro.core.probabilities import ProbabilityModel
from repro.core.session import NavigationSession
from repro.search.engine import SearchEngine
from repro.search.suggest import suggest_concepts, suggest_terms
from repro.viz.render import render_active_tree
from repro.workload.builder import build_workload


def main() -> None:
    print("Materializing the workload...")
    workload = build_workload(hierarchy_size=1500)
    database = workload.database
    engine = SearchEngine(database.store, database.index)
    target = workload.built_query("LbetaT2").target_node
    uid = workload.hierarchy.uid(target)

    queries = [
        "prothymosin",
        "prothymosin expression",
        '"Mice, Transgenic"[mh]',
        "Mice, Transgenic[mh]",
        "%s[mh:noexp]" % uid,
        "%d[mh]" % target,
        "LbetaT2 Mice, Transgenic[mh]",
        '"Mice, Transgenic"[mh] LbetaT2',
    ]
    print("\nQuery surface demonstration:\n")
    for query in queries:
        result = engine.search(query)
        print("  %-55s -> %4d citations" % (query, result.count))

    print("\nQuery refinement suggestions (the §IX PubReMiner/XplorMed features):")
    pmids = list(engine.search("prothymosin").pmids)
    print("  Top associated MeSH concepts:")
    for s in suggest_concepts(workload.medline, workload.hierarchy, pmids, top_k=5):
        print("    %-40s %4d (%.0f%%)" % (s.label[:40], s.count, 100 * s.fraction))
    print("  Enriched refinement terms:")
    for s in suggest_terms(workload.medline, pmids, top_k=5):
        print(
            "    %-20s in %d/%d results (score %.2f)"
            % (s.term, s.result_count, len(pmids), s.score)
        )

    print("\nNavigating a text-and-concept result set with BioNav:")
    query = 'LbetaT2 "Mice, Transgenic"[mh]'
    pmids = sorted(engine.search(query).pmids)
    print("  %r -> %d citations" % (query, len(pmids)))
    store = database.store
    tree = NavigationTree.from_store(workload.hierarchy, store, pmids)
    probs = ProbabilityModel(tree, store)
    session = NavigationSession(tree, HeuristicReducedOpt(tree, probs))
    session.expand(tree.root)
    session.expand(tree.root)
    print("\nInterface after two EXPANDs:\n")
    print(render_active_tree(session.active))
    print(
        "\nNavigation cost so far: %.0f (%d revealed + %d EXPANDs)"
        % (
            session.navigation_cost,
            session.ledger.concepts_revealed,
            session.ledger.expand_actions,
        )
    )


if __name__ == "__main__":
    main()
