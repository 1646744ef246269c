"""Unit tests for the simulated Entrez eutils client."""

from __future__ import annotations

import pytest

from repro.corpus.citation import Citation, DocSummary
from repro.corpus.medline import MedlineDatabase
from repro.eutils.client import EntrezClient
from repro.eutils.errors import BadRequestError, RateLimitExceeded, UnknownIdError
from repro.hierarchy.concept import ConceptHierarchy
from repro.search.engine import SearchEngine
from repro.storage.database import BioNavDatabase


def entrez(medline: MedlineDatabase, rate_limit=None) -> EntrezClient:
    """A client whose engine runs over the corpus's own database build.

    The flat ten-concept hierarchy covers every concept id these tests
    annotate.
    """
    hierarchy = ConceptHierarchy.from_parents(
        [-1] + [0] * 9, ["MeSH"] + ["concept %d" % concept for concept in range(1, 10)]
    )
    database = BioNavDatabase.build(hierarchy, medline)
    engine = SearchEngine(database.store, database.index)
    return EntrezClient(database.store, engine, rate_limit=rate_limit)


@pytest.fixture()
def medline() -> MedlineDatabase:
    db = MedlineDatabase()
    for pmid in range(1, 26):
        db.add(
            Citation(
                pmid=pmid,
                title="prothymosin study %d" % pmid,
                authors=("Author %d." % pmid,),
                year=1990 + pmid % 10,
            )
        )
    db.add(Citation(pmid=100, title="something else entirely"))
    return db


@pytest.fixture()
def client(medline) -> EntrezClient:
    return entrez(medline)


class TestESearch:
    def test_returns_count_and_first_page(self, client):
        result = client.esearch("prothymosin")
        assert result.count == 25
        assert len(result.ids) == 20  # default retmax

    def test_paging(self, client):
        first = client.esearch("prothymosin", retstart=0, retmax=10)
        second = client.esearch("prothymosin", retstart=10, retmax=10)
        third = client.esearch("prothymosin", retstart=20, retmax=10)
        assert len(first.ids) == 10
        assert len(second.ids) == 10
        assert len(third.ids) == 5
        all_ids = first.ids + second.ids + third.ids
        assert len(set(all_ids)) == 25

    def test_esearch_all_collects_every_id(self, client):
        ids = client.esearch_all("prothymosin", page_size=7)
        assert len(ids) == 25
        assert len(set(ids)) == 25

    def test_no_results(self, client):
        result = client.esearch("histones")
        assert result.count == 0
        assert result.ids == ()

    def test_empty_term_rejected(self, client):
        with pytest.raises(BadRequestError):
            client.esearch("   ")

    def test_negative_retstart_rejected(self, client):
        with pytest.raises(BadRequestError):
            client.esearch("prothymosin", retstart=-1)

    def test_huge_retmax_rejected(self, client):
        with pytest.raises(BadRequestError):
            client.esearch("prothymosin", retmax=1_000_000)


class TestESummaryEFetch:
    def test_esummary_returns_display_records(self, client):
        summaries = client.esummary([1, 2])
        assert all(isinstance(s, DocSummary) for s in summaries)
        assert summaries[0].pmid == 1
        assert "prothymosin" in summaries[0].title

    def test_esummary_unknown_id(self, client):
        with pytest.raises(UnknownIdError):
            client.esummary([1, 99999])

    def test_esummary_empty_rejected(self, client):
        with pytest.raises(BadRequestError):
            client.esummary([])

    def test_efetch_returns_full_citations(self, client):
        citations = client.efetch([5])
        assert isinstance(citations[0], Citation)
        assert citations[0].pmid == 5

    def test_efetch_unknown_id(self, client):
        with pytest.raises(UnknownIdError):
            client.efetch([424242])


class TestELink:
    def test_related_ranked_by_shared_concepts(self):
        db = MedlineDatabase()
        db.add(Citation(pmid=1, title="anchor", mesh_annotations=(1, 2, 3), index_concepts=(1, 2, 3)))
        db.add(Citation(pmid=2, title="close", mesh_annotations=(1, 2), index_concepts=(1, 2)))
        db.add(Citation(pmid=3, title="far", mesh_annotations=(3,), index_concepts=(3,)))
        db.add(Citation(pmid=4, title="unrelated", mesh_annotations=(9,), index_concepts=(9,)))
        client = entrez(db)
        related = client.elink_related(1)
        assert related == [2, 3]

    def test_excludes_self(self, client):
        db = MedlineDatabase()
        db.add(Citation(pmid=1, title="a", mesh_annotations=(1,), index_concepts=(1,)))
        db.add(Citation(pmid=2, title="b", mesh_annotations=(1,), index_concepts=(1,)))
        local = entrez(db)
        assert 1 not in local.elink_related(1)

    def test_retmax_truncates(self):
        db = MedlineDatabase()
        for pmid in range(1, 12):
            db.add(Citation(pmid=pmid, title="t", mesh_annotations=(5,), index_concepts=(5,)))
        client = entrez(db)
        assert len(client.elink_related(1, retmax=4)) == 4

    def test_unknown_pmid(self, client):
        with pytest.raises(UnknownIdError):
            client.elink_related(424242)

    def test_no_concepts_no_neighbors(self, client):
        # Fixture citations carry no concepts.
        assert client.elink_related(1) == []

    def test_total_requests_survives_quota_reset(self, medline):
        client = entrez(medline, rate_limit=1)
        client.esearch("prothymosin")
        client.reset_quota()
        client.esearch("prothymosin")
        assert client.requests_served == 1
        assert client.total_requests == 2


class TestRateLimiting:
    def test_quota_enforced(self, medline):
        client = entrez(medline, rate_limit=2)
        client.esearch("prothymosin")
        client.esummary([1])
        with pytest.raises(RateLimitExceeded):
            client.efetch([1])

    def test_reset_quota(self, medline):
        client = entrez(medline, rate_limit=1)
        client.esearch("prothymosin")
        client.reset_quota()
        client.esearch("prothymosin")  # does not raise
        assert client.requests_served == 1

    def test_requests_served_counter(self, client):
        client.esearch("prothymosin")
        client.esearch("prothymosin")
        assert client.requests_served == 2
