"""Unit tests for repro.storage.database (off-line pre-processing)."""

from __future__ import annotations

import dataclasses

import pytest

from repro.corpus.citation import Citation
from repro.corpus.medline import MedlineDatabase
from repro.hierarchy.concept import ConceptHierarchy
from repro.pipeline.stages import SearchStage
from repro.storage.database import BioNavDatabase
from repro.substrate import MmapStore, SubstrateBuilder, citation_chunks
from tests.oracles.store_reference import annotation_arrays


@pytest.fixture()
def hierarchy() -> ConceptHierarchy:
    return ConceptHierarchy.from_parents([-1, 0, 0, 1], ["MeSH", "A", "B", "C"])


@pytest.fixture()
def medline(hierarchy) -> MedlineDatabase:
    db = MedlineDatabase(background_counts={1: 50, 2: 10})
    db.add(
        Citation(
            pmid=100,
            title="prothymosin study",
            mesh_annotations=(1,),
            index_concepts=(1, 3),
        )
    )
    db.add(
        Citation(
            pmid=101,
            title="histone study",
            mesh_annotations=(2,),
            index_concepts=(2, 3),
        )
    )
    return db


@pytest.fixture()
def database(hierarchy, medline) -> BioNavDatabase:
    return BioNavDatabase.build(hierarchy, medline)


def annotations(store, pmids):
    concepts, offsets, values = annotation_arrays(store, pmids)
    return {
        concept: frozenset(values[offsets[i] : offsets[i + 1]].tolist())
        for i, concept in enumerate(concepts.tolist())
    }


class TestBuild:
    def test_associations_extracted(self, database):
        assert database.store.citations_for_concept(3).tolist() == [100, 101]
        assert database.store.citations_for_concept(1).tolist() == [100]

    def test_denormalized_matches(self, database):
        assert database.store.concepts_of(100) == (1, 3)

    def test_stats_include_background(self, database):
        assert database.store.medline_count(1) == 51  # 1 corpus + 50 background
        assert database.store.medline_count(3) == 2

    def test_index_searches_titles(self, database):
        assert database.index.search("prothymosin") == {100}

    def test_every_database_has_a_store(self, database, hierarchy):
        assert database.store.backend == "memory"
        assert database.store.num_concepts == len(hierarchy)
        assert database.store.hierarchy() is hierarchy
        assert database.store.store_info()["citations"] == 2


class TestAssociationArrays:
    """The (concept, citation) relation as the store's CSR arrays."""

    def test_citations_for_concept(self, database):
        assert database.store.citations_for_concept(2).tolist() == [101]
        assert database.store.citations_for_concept(0).tolist() == []
        assert [
            c
            for c in range(database.store.num_concepts)
            if database.store.result_count(c)
        ] == [1, 2, 3]

    def test_duplicate_associations_collapse(self, hierarchy):
        medline = MedlineDatabase()
        medline.add(Citation(pmid=7, title="x", index_concepts=(3, 1, 3)))
        store = BioNavDatabase.build(hierarchy, medline).store
        assert store.concepts_of(7) == (1, 3)
        assert store.result_count(3) == 1
        assert int(store.manifest["pairs"]) == 2

    def test_concepts_of_unknown_citation_raises(self, database):
        with pytest.raises(KeyError):
            database.store.concepts_of(999)
        assert 999 not in database.store.pmids()

    def test_pmids_ascending_whatever_the_insert_order(self, hierarchy):
        medline = MedlineDatabase()
        for pmid in (9, 3, 5):
            medline.add(Citation(pmid=pmid, title="x", index_concepts=(1,)))
        store = BioNavDatabase.build(hierarchy, medline).store
        assert store.pmids() == [3, 5, 9]
        assert store.citations_for_concept(1).tolist() == [3, 5, 9]

    def test_lt_of_unannotated_and_unknown_concepts(self, database):
        assert database.store.medline_count(2) == 11  # 1 corpus + 10 background
        assert database.store.medline_count(0) == 0
        assert database.store.medline_count(99) == 0


class TestOnlineAccess:
    def test_concepts_of_citations(self, database):
        assert {p: database.store.concepts_of(p) for p in (100, 101)} == {
            100: (1, 3),
            101: (2, 3),
        }

    def test_annotations_for_result(self, database):
        result = annotations(database.store, [100, 101])
        assert result[3] == frozenset({100, 101})
        assert result[1] == frozenset({100})

    def test_annotations_for_partial_result(self, database):
        result = annotations(database.store, [100, 555])
        assert 2 not in result
        assert result[3] == frozenset({100})


class TestPersistence:
    """Persistence is the substrate directory: build to it, then open it."""

    def test_save_load_round_trip(self, database, hierarchy, medline, tmp_path):
        builder = SubstrateBuilder(str(tmp_path), num_concepts=len(hierarchy))
        manifest = builder.build(
            citation_chunks(medline.get(p) for p in medline.pmids()),
            hierarchy=hierarchy,
            background=medline.background_counts(),
            meta=database.store.manifest["meta"],
        )
        loaded = BioNavDatabase.from_store(MmapStore.open(str(tmp_path)))
        assert manifest.digest == database.store.manifest_digest
        assert loaded.content_digest() == database.content_digest()
        for concept in range(len(hierarchy)):
            assert (
                loaded.store.citations_for_concept(concept).tolist()
                == database.store.citations_for_concept(concept).tolist()
            )
        assert loaded.store.medline_count(1) == database.store.medline_count(1)
        assert loaded.hierarchy.label(3) == "C"

    def test_load_without_medline_leaves_index_empty(self, hierarchy, medline, tmp_path):
        builder = SubstrateBuilder(str(tmp_path), num_concepts=len(hierarchy))
        builder.build(
            citation_chunks(medline.get(p) for p in medline.pmids()),
            hierarchy=hierarchy,
        )
        loaded = BioNavDatabase.from_store(MmapStore.open(str(tmp_path)))
        # A substrate directory carries no keyword index ...
        assert loaded.index is None
        # ... but navigation from PMIDs works over the store.
        assert annotations(loaded.store, [100])[1] == frozenset({100})


class TestDeploymentIdentity:
    """Stage keys change with the corpus, not just the hierarchy."""

    def test_different_corpora_get_different_digests(self, hierarchy, medline):
        other = MedlineDatabase(background_counts={1: 50, 2: 10})
        other.add(Citation(pmid=100, title="prothymosin study", index_concepts=(1,)))
        first = BioNavDatabase.build(hierarchy, medline)
        second = BioNavDatabase.build(hierarchy, other)
        assert first.content_digest() != second.content_digest()
        keys = {
            SearchStage.key(db.content_digest(), "prothymosin") for db in (first, second)
        }
        assert len(keys) == 2

    def test_keyword_text_is_part_of_the_digest(self, hierarchy, medline):
        retitled = MedlineDatabase(background_counts={1: 50, 2: 10})
        for pmid in medline.pmids():
            citation = medline.get(pmid)
            retitled.add(dataclasses.replace(citation, title="renamed"))
        first = BioNavDatabase.build(hierarchy, medline)
        second = BioNavDatabase.build(hierarchy, retitled)
        assert first.store.pmids() == second.store.pmids()
        assert first.content_digest() != second.content_digest()

    def test_same_corpus_same_digest(self, hierarchy, medline):
        assert (
            BioNavDatabase.build(hierarchy, medline).content_digest()
            == BioNavDatabase.build(hierarchy, medline).content_digest()
        )
