"""Integration tests: the full pipeline on the materialized workload.

These assert the paper's qualitative claims end to end — offline build →
ESearch → navigation-tree construction → strategy-driven navigation —
on trees large enough for the claims to hold.
"""

from __future__ import annotations

import pytest

from repro.core.heuristic import HeuristicReducedOpt
from repro.core.simulator import navigate_to_target
from repro.core.static_nav import StaticNavigation
from tests.oracles.member_sets import subtree_results


@pytest.fixture(scope="module")
def prepared_queries(request):
    workload = request.getfixturevalue("small_workload")
    return workload.prepare_all()


class TestHeadlineClaims:
    def test_every_target_reachable_by_both_strategies(self, prepared_queries):
        for prepared in prepared_queries:
            for strategy in (
                StaticNavigation(prepared.tree),
                HeuristicReducedOpt(prepared.tree, prepared.probs),
            ):
                outcome = navigate_to_target(
                    prepared.tree, strategy, prepared.target_node, show_results=False
                )
                assert outcome.reached, (prepared.spec.keyword, strategy.name)

    def test_bionav_beats_static_on_every_query(self, prepared_queries):
        """Fig. 8: BioNav's navigation cost is lower for all ten queries."""
        for prepared in prepared_queries:
            static = navigate_to_target(
                prepared.tree,
                StaticNavigation(prepared.tree),
                prepared.target_node,
                show_results=False,
            )
            bionav = navigate_to_target(
                prepared.tree,
                HeuristicReducedOpt(prepared.tree, prepared.probs),
                prepared.target_node,
                show_results=False,
            )
            assert bionav.navigation_cost < static.navigation_cost, prepared.spec.keyword

    def test_average_improvement_is_large(self, prepared_queries):
        """Fig. 8: the paper reports an 85% average improvement; our
        substrate should land in the same band (>= 60%)."""
        improvements = []
        for prepared in prepared_queries:
            static = navigate_to_target(
                prepared.tree,
                StaticNavigation(prepared.tree),
                prepared.target_node,
                show_results=False,
            )
            bionav = navigate_to_target(
                prepared.tree,
                HeuristicReducedOpt(prepared.tree, prepared.probs),
                prepared.target_node,
                show_results=False,
            )
            improvements.append(1 - bionav.navigation_cost / static.navigation_cost)
        assert sum(improvements) / len(improvements) >= 0.60

    def test_reduced_trees_capped_at_ten(self, prepared_queries):
        """§VI-B: Opt-EdgeCut only ever sees at most N=10 supernodes."""
        prepared = prepared_queries[4]  # prothymosin
        strategy = HeuristicReducedOpt(prepared.tree, prepared.probs, max_reduced_nodes=10)
        outcome = navigate_to_target(
            prepared.tree, strategy, prepared.target_node, show_results=False
        )
        assert all(record.reduced_size <= 10 for record in outcome.expands)


class TestOnlinePipeline:
    def test_query_results_attach_to_tree(self, small_workload):
        prepared = small_workload.prepare("dyslexia genetics")
        attached = subtree_results(prepared.tree, prepared.tree.root)
        assert attached == frozenset(prepared.pmids)

    def test_tree_contains_no_empty_non_root_nodes(self, small_workload):
        prepared = small_workload.prepare("syntaxin 1A")
        for node in prepared.tree.nodes():
            if node != prepared.tree.root:
                assert len(prepared.tree.results(node))

    def test_show_results_returns_real_pmids(self, small_workload):
        prepared = small_workload.prepare("melibiose permease")
        strategy = HeuristicReducedOpt(prepared.tree, prepared.probs)
        outcome = navigate_to_target(prepared.tree, strategy, prepared.target_node)
        assert outcome.citations_displayed >= 2
        # The target's citations exist in MEDLINE and are fetchable.
        pmids = sorted(prepared.tree.results(prepared.target_node))
        summaries = small_workload.entrez.esummary(pmids[:3])
        assert len(summaries) == 3

    def test_database_round_trip_preserves_navigation(self, small_workload, tmp_path):
        """Persist the BioNav database as a substrate directory, reopen it
        and navigate identically."""
        from repro.core.navigation_tree import NavigationTree
        from repro.storage.database import BioNavDatabase
        from repro.substrate import MmapStore, SubstrateBuilder, citation_chunks

        database = small_workload.database
        medline = small_workload.medline
        builder = SubstrateBuilder(str(tmp_path), num_concepts=len(database.hierarchy))
        builder.build(
            citation_chunks(medline.get(p) for p in medline.pmids()),
            hierarchy=database.hierarchy,
            background=medline.background_counts(),
            meta=database.store.manifest["meta"],
        )
        loaded = BioNavDatabase.from_store(MmapStore.open(str(tmp_path)))
        assert loaded.content_digest() == database.content_digest()
        pmids = small_workload.entrez.esearch_all("LbetaT2")
        original = NavigationTree.from_store(database.hierarchy, database.store, pmids)
        restored = NavigationTree.from_store(loaded.hierarchy, loaded.store, pmids)
        assert list(original.iter_dfs()) == list(restored.iter_dfs())
        assert original.citations_with_duplicates() == restored.citations_with_duplicates()
