"""Gap-filling tests for less-traveled code paths."""

from __future__ import annotations

import pytest

from repro.corpus.generator import CorpusGenerator, TopicSpec
from repro.core.edgecut import Component
from repro.core.strategy import CutDecision, ExpansionStrategy
from repro.eutils.client import EntrezClient
from repro.eutils.errors import BadRequestError
from repro.hierarchy.generator import generate_hierarchy
from repro.search.engine import SearchEngine
from tests.oracles.member_sets import tree_from_mapping


class TestStrategyInterface:
    def test_abstract_strategy_cannot_instantiate(self):
        with pytest.raises(TypeError):
            ExpansionStrategy()  # type: ignore[abstract]

    def test_cut_decision_defaults(self):
        decision = CutDecision(cut=((1, 2),))
        assert decision.reduced_size == 0
        assert decision.expected_cost is None

    def test_cut_decision_is_frozen(self):
        decision = CutDecision(cut=())
        with pytest.raises(AttributeError):
            decision.cut = ((1, 2),)


class TestGeneratorFallbacks:
    def test_sample_covers_whole_pool_when_count_exceeds_it(self):
        hierarchy = generate_hierarchy(target_size=30, seed=2)
        generator = CorpusGenerator(hierarchy, seed=2)
        pool = list(range(1, 6))
        weights = [1.0] * 5
        sampled = generator._sample_weighted(pool, weights, count=50)
        assert sorted(sampled) == pool

    def test_focus_cluster_on_leaf_includes_parent_sometimes(self):
        hierarchy = generate_hierarchy(target_size=60, seed=3)
        generator = CorpusGenerator(hierarchy, seed=3)
        leaf = hierarchy.leaves()[0]
        clusters = [generator._focus_cluster(leaf, 4) for _ in range(30)]
        assert all(cluster[0] == leaf for cluster in clusters)
        assert any(hierarchy.parent(leaf) in cluster for cluster in clusters)

    def test_topic_with_leaf_anchor(self):
        hierarchy = generate_hierarchy(target_size=80, seed=4)
        generator = CorpusGenerator(hierarchy, seed=4)
        leaf = hierarchy.leaves()[0]
        citations = generator.generate_topic(
            TopicSpec(keyword="leafq", n_citations=5, anchors=((leaf, 1.0),))
        )
        assert len(citations) == 5
        assert all(citation.index_concepts for citation in citations)

    def test_anchor_weight_validation(self):
        hierarchy = generate_hierarchy(target_size=40, seed=5)
        generator = CorpusGenerator(hierarchy, seed=5)
        with pytest.raises(ValueError):
            generator.generate_topic(
                TopicSpec(keyword="x", n_citations=3, anchors=((1, -1.0),))
            )


class TestEutilsEdges:
    def test_esearch_all_on_empty_result(self, small_workload):
        assert small_workload.entrez.esearch_all("zzznomatch") == []

    def test_esearch_retmax_zero_returns_count_only(self, small_workload):
        result = small_workload.entrez.esearch("prothymosin", retmax=0)
        assert result.count == 313
        assert result.ids == ()

    def test_fresh_client_has_no_requests(self, small_workload):
        database = small_workload.database
        engine = SearchEngine(database.store, database.index)
        client = EntrezClient(database.store, engine)
        assert client.requests_served == 0
        assert client.total_requests == 0

    def test_elink_negative_retmax_rejected(self, small_workload):
        pmid = small_workload.medline.pmids()[0]
        with pytest.raises(BadRequestError):
            small_workload.entrez.elink_related(pmid, retmax=-1)


class TestNavigationTreeEdges:
    def test_build_within_subtree_root(self, fragment_hierarchy):
        """Building a navigation tree rooted below the hierarchy root."""
        bio = fragment_hierarchy.by_label(
            "Biological Phenomena, Cell Phenomena, and Immunity"
        )
        apoptosis = fragment_hierarchy.by_label("Apoptosis")
        tree = tree_from_mapping(
            fragment_hierarchy, {apoptosis: {1, 2}}, root=bio
        )
        assert tree.root == bio
        assert apoptosis in tree
        assert tree.parent(apoptosis) == bio  # intermediates spliced

    def test_empty_annotations_leave_only_root(self, fragment_hierarchy):
        tree = tree_from_mapping(fragment_hierarchy, {})
        assert tree.size() == 1
        assert len(Component(tree, tree.root).distinct_results()) == 0
