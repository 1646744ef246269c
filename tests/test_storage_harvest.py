"""Tests for the §VII concept-by-concept association harvest."""

from __future__ import annotations

import pytest

from repro.corpus.citation import Citation
from repro.corpus.medline import MedlineDatabase
from repro.eutils.client import EntrezClient
from repro.hierarchy.concept import ConceptHierarchy
from repro.search.engine import SearchEngine
from repro.storage.database import BioNavDatabase
from repro.storage.harvest import ConceptHarvester


@pytest.fixture(scope="module")
def harvest_setup(request):
    workload = request.getfixturevalue("small_workload")
    engine = SearchEngine(workload.database.store, workload.database.index)
    client = EntrezClient(workload.database.store, engine, rate_limit=500)
    return workload, ConceptHarvester(workload.hierarchy, client), client


class TestHarvest:
    def test_harvest_matches_direct_extraction(self, harvest_setup):
        """The paper's query-per-concept harvest and the direct extraction
        of BioNavDatabase.build must produce the same associations."""
        workload, harvester, _ = harvest_setup
        # Harvest a slice of concepts (full harvest is O(concepts × corpus)).
        concepts = [n for n in range(1, 120)]
        result = harvester.harvest(concepts=concepts)
        direct = BioNavDatabase.build(workload.hierarchy, workload.medline)
        assert sorted(result.associations) == concepts
        for concept in concepts:
            assert result.associations[concept].tolist() == (
                direct.store.citations_for_concept(concept).tolist()
            ), concept

    def test_stats_record_result_counts(self, harvest_setup):
        workload, harvester, _ = harvest_setup
        concepts = [n for n in range(1, 40)]
        result = harvester.harvest(concepts=concepts)
        store = workload.database.store
        for concept in concepts:
            assert len(result.associations[concept]) == store.result_count(concept)

    def test_rate_limit_windows_consumed(self, harvest_setup):
        workload, _, _ = harvest_setup
        engine = SearchEngine(workload.database.store, workload.database.index)
        tight_client = EntrezClient(workload.database.store, engine, rate_limit=3)
        harvester = ConceptHarvester(workload.hierarchy, tight_client)
        result = harvester.harvest(concepts=list(range(1, 25)))
        # 24 concept queries through a 3-request window need several resets.
        assert result.quota_windows >= 24 // 3 - 1
        assert result.concepts_queried == 24
        assert result.requests_issued >= 24

    def test_default_harvests_every_non_root_concept(self, harvest_setup):
        workload, harvester, _ = harvest_setup
        # Restrict to a tiny hierarchy prefix via explicit list, but check
        # the default enumeration covers all non-root nodes.
        default_concepts = [
            n for n in range(len(workload.hierarchy)) if n != workload.hierarchy.root
        ]
        assert len(default_concepts) == len(workload.hierarchy) - 1


class TestDefaultClientHarvest:
    """The harvester's ``"<label>"[mh:noexp]`` terms through the
    :class:`SearchEngine` over the database's store, whose build-time
    hierarchy resolves concept labels."""

    def test_harvest_equals_store_postings_for_every_concept(self):
        hierarchy = ConceptHierarchy.from_parents(
            [-1, 0, 1, 0],
            ["root", "Kinase, Alpha (L1-0001)", "Ice nucleation", "Unannotated concept"],
        )
        kinase, ice = 1, 2
        medline = MedlineDatabase()
        medline.add(Citation(pmid=1, title="first", index_concepts=(kinase,)))
        medline.add(Citation(pmid=2, title="second", index_concepts=(kinase, ice)))
        database = BioNavDatabase.build(hierarchy, medline)
        store = database.store
        client = EntrezClient(store, SearchEngine(store, database.index))
        harvester = ConceptHarvester(hierarchy, client)
        result = harvester.harvest()
        assert sorted(result.associations) == list(range(1, len(hierarchy)))
        for concept, pmids in result.associations.items():
            assert pmids.tolist() == store.citations_for_concept(concept).tolist()
        assert result.associations[kinase].tolist() == [1, 2]

    def test_workload_harvest_equals_store_postings(self, small_workload):
        database = small_workload.database
        engine = SearchEngine(database.store, database.index)
        client = EntrezClient(database.store, engine)
        result = ConceptHarvester(small_workload.hierarchy, client).harvest()
        store = database.store
        assert len(result.associations) == len(small_workload.hierarchy) - 1
        for concept, pmids in result.associations.items():
            assert pmids.tolist() == store.citations_for_concept(concept).tolist(), concept

    def test_noexp_and_quoted_terms_resolve_to_own_postings(self, small_workload):
        database = small_workload.database
        hierarchy = small_workload.hierarchy
        engine = SearchEngine(database.store, database.index)
        concept = max(range(1, len(hierarchy)), key=database.store.result_count)
        expected = engine.search("%d[mh]" % concept).pmids
        assert expected
        label = hierarchy.label(concept)
        for query in (
            '"%s"[mh:noexp]' % label,
            "%s[MH:NOEXP]" % label,
            '"%s"[mh]' % label,
            "%s[mh:noexp]" % hierarchy.uid(concept),
        ):
            assert engine.search(query).pmids == expected, query
