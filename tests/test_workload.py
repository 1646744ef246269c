"""Unit tests for the Table I workload (specs + materialization)."""

from __future__ import annotations

import pytest

from repro.workload.queries import TABLE_I_QUERIES, WorkloadQuery, query_by_keyword


class TestSpecs:
    def test_ten_queries(self):
        assert len(TABLE_I_QUERIES) == 10

    def test_paper_prose_counts_honored(self):
        assert query_by_keyword("prothymosin").n_citations == 313
        assert query_by_keyword("vardenafil").n_citations == 486

    def test_paper_target_labels(self):
        assert query_by_keyword("LbetaT2").target_label == "Mice, Transgenic"
        assert (
            query_by_keyword("ice nucleation").target_label
            == "Plants, Genetically Modified"
        )
        assert query_by_keyword("follistatin").target_label == "Follicle Stimulating Hormone"

    def test_ice_nucleation_has_low_selectivity(self):
        # The paper's hardest case: extremely low L(n) for the target.
        assert query_by_keyword("ice nucleation").target_share < 0.1

    def test_unique_keywords_and_seeds(self):
        keywords = [q.keyword for q in TABLE_I_QUERIES]
        seeds = [q.seed for q in TABLE_I_QUERIES]
        assert len(set(keywords)) == 10
        assert len(set(seeds)) == 10

    def test_unknown_keyword_raises(self):
        with pytest.raises(KeyError):
            query_by_keyword("nonexistent")

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            WorkloadQuery("x", 0, "T", 3, 1, 0.5, 1)
        with pytest.raises(ValueError):
            WorkloadQuery("x", 10, "T", 1, 1, 0.5, 1)
        with pytest.raises(ValueError):
            WorkloadQuery("x", 10, "T", 3, 0, 0.5, 1)
        with pytest.raises(ValueError):
            WorkloadQuery("x", 10, "T", 3, 1, 0.0, 1)


class TestMaterialization:
    def test_every_query_is_built(self, small_workload):
        assert len(small_workload.queries) == 10

    def test_target_labels_grafted_into_hierarchy(self, small_workload):
        for built in small_workload.queries:
            node = small_workload.hierarchy.by_label(built.spec.target_label)
            assert node == built.target_node

    def test_esearch_returns_exact_result_counts(self, small_workload):
        for built in small_workload.queries:
            result = small_workload.entrez.esearch(built.spec.keyword, retmax=0)
            assert result.count == built.spec.n_citations

    def test_queries_do_not_leak_into_each_other(self, small_workload):
        prothymosin = set(small_workload.entrez.esearch_all("prothymosin"))
        vardenafil = set(small_workload.entrez.esearch_all("vardenafil"))
        assert not prothymosin & vardenafil

    def test_prepare_builds_navigation_tree(self, small_workload):
        prepared = small_workload.prepare("prothymosin")
        assert prepared.tree.size() > 50
        assert len(prepared.pmids) == 313
        assert prepared.target_node in prepared.tree

    def test_target_always_has_citations(self, small_workload):
        for built in small_workload.queries:
            prepared = small_workload.prepare(built.spec.keyword)
            assert len(prepared.tree.results(prepared.target_node)) >= 2

    def test_built_query_lookup(self, small_workload):
        built = small_workload.built_query("follistatin")
        assert built.spec.keyword == "follistatin"
        with pytest.raises(KeyError):
            small_workload.built_query("nope")

    def test_target_share_orders_selectivity(self, small_workload):
        """Higher target_share specs yield relatively bigger L(target)."""
        ice = small_workload.prepare("ice nucleation")
        vard = small_workload.prepare("vardenafil")
        ice_share = len(ice.tree.results(ice.target_node)) / len(ice.pmids)
        vard_share = len(vard.tree.results(vard.target_node)) / len(vard.pmids)
        assert ice_share < vard_share

    def test_medline_counts_available_for_probabilities(self, small_workload):
        prepared = small_workload.prepare("LbetaT2")
        count = small_workload.database.store.medline_count(prepared.target_node)
        assert count > 0
