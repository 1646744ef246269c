"""Unit tests for MEDLINE JSONL persistence."""

from __future__ import annotations

import io

import pytest

from repro.corpus.citation import Citation
from repro.corpus.medline import MedlineDatabase
from repro.corpus.persistence import read_citations_jsonl, write_citations_jsonl


@pytest.fixture()
def medline() -> MedlineDatabase:
    db = MedlineDatabase(background_counts={3: 500, 7: 20})
    db.add(
        Citation(
            pmid=10,
            title="prothymosin in apoptosis",
            abstract="we report",
            authors=("Smith A", "Roe B"),
            year=2003,
            mesh_annotations=(3,),
            index_concepts=(3, 7),
        )
    )
    db.add(Citation(pmid=11, title="another", index_concepts=(7,)))
    return db


def save(medline: MedlineDatabase, buffer: io.StringIO) -> int:
    return write_citations_jsonl(
        (medline.get(pmid) for pmid in medline.pmids()),
        buffer,
        medline.background_counts(),
    )


def load(handle: io.StringIO) -> MedlineDatabase:
    background, citations = read_citations_jsonl(handle)
    medline = MedlineDatabase(background_counts=background)
    medline.add_all(citations)
    return medline


class TestRoundTrip:
    def test_full_round_trip(self, medline):
        buffer = io.StringIO()
        written = save(medline, buffer)
        assert written == 2
        restored = load(io.StringIO(buffer.getvalue()))
        assert restored.pmids() == medline.pmids()
        for pmid in medline.pmids():
            assert restored.get(pmid) == medline.get(pmid)

    def test_background_counts_preserved(self, medline):
        buffer = io.StringIO()
        save(medline, buffer)
        restored = load(io.StringIO(buffer.getvalue()))
        assert restored.medline_count(3) == medline.medline_count(3)
        assert restored.medline_count(7) == medline.medline_count(7)

    def test_empty_database_round_trips(self):
        buffer = io.StringIO()
        save(MedlineDatabase(), buffer)
        restored = load(io.StringIO(buffer.getvalue()))
        assert len(restored) == 0


class TestErrors:
    def test_empty_file_rejected(self):
        with pytest.raises(ValueError):
            load(io.StringIO(""))

    def test_missing_header_rejected(self):
        body = '{"kind": "citation", "pmid": 1, "title": "x"}\n'
        with pytest.raises(ValueError):
            load(io.StringIO(body))

    def test_bad_version_rejected(self):
        body = '{"kind": "medline-header", "version": 99}\n'
        with pytest.raises(ValueError):
            load(io.StringIO(body))

    def test_unknown_record_kind_rejected(self):
        body = (
            '{"kind": "medline-header", "version": 1, "background_counts": {}}\n'
            '{"kind": "mystery"}\n'
        )
        with pytest.raises(ValueError):
            load(io.StringIO(body))
