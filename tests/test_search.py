"""Unit tests for repro.search (engine + ranking)."""

from __future__ import annotations

import pytest

from repro.corpus.citation import Citation
from repro.corpus.medline import MedlineDatabase
from repro.hierarchy.concept import ConceptHierarchy
from repro.search.engine import SearchEngine
from repro.search.ranking import rank_results, tf_idf_score
from repro.storage.database import BioNavDatabase
from repro.storage.index import InvertedIndex


def citation(pmid, title, abstract="", year=2000):
    return Citation(pmid=pmid, title=title, abstract=abstract, year=year)


@pytest.fixture()
def medline() -> MedlineDatabase:
    db = MedlineDatabase()
    db.add_all(
        [
            citation(1, "prothymosin in apoptosis", "prothymosin prothymosin", 1999),
            citation(2, "apoptosis pathways", "necrosis and death", 2005),
            citation(3, "prothymosin overview", "a survey", 2005),
            citation(4, "unrelated kinase work", "kinase kinase", 2001),
        ]
    )
    return db


@pytest.fixture()
def engine(medline) -> SearchEngine:
    database = BioNavDatabase.build(ConceptHierarchy.from_parents([-1], ["MeSH"]), medline)
    return SearchEngine(database.store, database.index)


class TestSearchEngine:
    def test_single_term_query(self, engine):
        result = engine.search("prothymosin")
        assert set(result.pmids) == {1, 3}
        assert result.count == 2

    def test_conjunctive_query(self, engine):
        result = engine.search("prothymosin apoptosis")
        assert set(result.pmids) == {1}

    def test_no_results(self, engine):
        assert engine.search("histone").count == 0

    def test_ranking_prefers_higher_tf(self, engine):
        # pmid 1 mentions prothymosin three times; pmid 3 once.
        result = engine.search("prothymosin")
        assert result.pmids[0] == 1

    def test_corpus_size(self, engine):
        assert len(engine) == 4


class TestRanking:
    def test_tf_idf_zero_for_absent_term(self):
        index = InvertedIndex()
        index.add_document(1, "alpha beta")
        assert tf_idf_score(index, 1, ["gamma"]) == 0.0

    def test_tf_idf_increases_with_tf(self):
        index = InvertedIndex()
        index.add_document(1, "alpha")
        index.add_document(2, "alpha alpha alpha")
        index.add_document(3, "beta")
        low = tf_idf_score(index, 1, ["alpha"])
        high = tf_idf_score(index, 2, ["alpha"])
        assert high > low > 0

    def test_rare_terms_weigh_more(self):
        index = InvertedIndex()
        index.add_document(1, "common rare")
        index.add_document(2, "common")
        index.add_document(3, "common")
        rare = tf_idf_score(index, 1, ["rare"])
        common = tf_idf_score(index, 1, ["common"])
        assert rare > common

    def test_rank_breaks_ties_by_recency_then_pmid(self):
        index = InvertedIndex()
        index.add_document(1, "alpha")
        index.add_document(2, "alpha")
        index.add_document(3, "alpha")
        ranked = rank_results(index, [1, 2, 3], "alpha", years={1: 1990, 2: 2008, 3: 2008})
        assert ranked == [2, 3, 1]


class TestConceptTerms:
    """``[mh]`` terms mixed with free text, in either order."""

    def test_mh_labels_match_case_insensitively(self):
        hierarchy = ConceptHierarchy.from_parents(
            [-1, 0, 0], ["MeSH", "Apoptosis", "APOPTOSIS"]
        )
        first, shouted = 1, 2
        medline = MedlineDatabase()
        medline.add_all(
            [
                Citation(pmid=1, title="cell death", index_concepts=(first,)),
                Citation(pmid=2, title="more cell death", index_concepts=(shouted,)),
            ]
        )
        database = BioNavDatabase.build(hierarchy, medline)
        engine = SearchEngine(database.store, database.index)
        # No exact label: the casefolded match with the lowest node id.
        assert list(engine.search("apoptosis[mh]").pmids) == [1]
        assert list(engine.search('"aPoPtOsIs"[mh]').pmids) == [1]
        # An exact label wins over an earlier casefolded one.
        assert list(engine.search("APOPTOSIS[mh]").pmids) == [2]
        assert list(engine.search("Apoptosis[mh]").pmids) == [1]

    def test_text_before_bare_mh_term_stays_free_text(self, small_workload):
        database = small_workload.database
        hierarchy = small_workload.hierarchy
        engine = SearchEngine(database.store, database.index)
        keyword = set(engine.search("prothymosin").pmids)

        def overlap(concept):
            hits = database.store.citations_for_concept(concept).tolist()
            return len(keyword.intersection(hits))

        concept = max(range(1, len(hierarchy)), key=overlap)
        assert overlap(concept) > 0
        tag_first = engine.search("%d[mh] prothymosin" % concept).pmids
        assert tag_first
        assert engine.search("prothymosin %d[mh]" % concept).pmids == tag_first

        # Free text before a multi-word label: the label is the longest
        # suffix of the run that names a concept.
        label = max(
            (n for n in range(1, len(hierarchy)) if " " in hierarchy.label(n)),
            key=overlap,
        )
        assert overlap(label) > 0
        expected = engine.search('"%s"[mh] prothymosin' % hierarchy.label(label)).pmids
        assert expected
        assert engine.search("prothymosin %s[mh]" % hierarchy.label(label)).pmids == expected
        assert engine.search("%s[mh] prothymosin" % hierarchy.label(label)).pmids == expected
