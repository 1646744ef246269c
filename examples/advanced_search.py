"""Advanced search: the PubMed-style query language over the corpus.

Run with::

    python examples/advanced_search.py

Demonstrates the fielded boolean query language — phrases, ``[ti]``/``[ab]``
text fields, and ``[mh]`` MeSH-concept queries with subtree explosion —
and then feeds a fielded result set into a BioNav navigation, showing that
the navigation machinery is agnostic to how the result set was produced.
"""

from __future__ import annotations

from repro.core.heuristic import HeuristicReducedOpt
from repro.core.navigation_tree import NavigationTree
from repro.core.probabilities import ProbabilityModel
from repro.core.session import NavigationSession
from repro.search.evaluator import FieldedSearchEngine
from repro.viz.render import render_active_tree
from repro.workload.builder import build_workload


def main() -> None:
    print("Materializing the workload...")
    workload = build_workload(hierarchy_size=1500)
    engine = FieldedSearchEngine(workload.medline, workload.hierarchy)

    queries = [
        "prothymosin",
        "prothymosin[ti]",
        "prothymosin AND expression",
        "prothymosin OR vardenafil",
        "prothymosin NOT expression",
        '"Mice, Transgenic"[mh]',
        '(prothymosin OR vardenafil) AND "Mice, Transgenic"[mh]',
    ]
    print("\nQuery language demonstration:\n")
    for query in queries:
        matches = engine.search(query)
        print("  %-55s -> %4d citations" % (query, len(matches)))

    print("\nQuery refinement suggestions (the §IX PubReMiner/XplorMed features):")
    from repro.search.suggest import suggest_concepts, suggest_terms

    pmids = sorted(engine.search("prothymosin"))
    print("  Top associated MeSH concepts:")
    for s in suggest_concepts(workload.medline, workload.hierarchy, pmids, top_k=5):
        print("    %-40s %4d (%.0f%%)" % (s.label[:40], s.count, 100 * s.fraction))
    print("  Enriched refinement terms:")
    for s in suggest_terms(workload.medline, pmids, top_k=5):
        print(
            "    %-20s in %d/%d results (score %.2f)"
            % (s.term, s.result_count, len(pmids), s.score)
        )

    print("\nNavigating a fielded result set with BioNav:")
    query = '(prothymosin OR vardenafil) AND expression'
    pmids = sorted(engine.search(query))
    print("  %r -> %d citations" % (query, len(pmids)))
    store = workload.database.store
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
