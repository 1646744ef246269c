"""Simulated MEDLINE corpus: citations, database, generators, file formats."""

from repro.corpus.citation import Citation, DocSummary
from repro.corpus.generator import CorpusGenerator, TopicSpec
from repro.corpus.loader import (
    citations_from_records,
    dump_medline_text,
    load_medline_text,
    parse_medline_text,
    stream_medline_records,
    stream_medline_text,
)
from repro.corpus.medline import MedlineDatabase
from repro.corpus.persistence import read_citations_jsonl, write_citations_jsonl

__all__ = [
    "Citation",
    "CorpusGenerator",
    "DocSummary",
    "MedlineDatabase",
    "TopicSpec",
    "citations_from_records",
    "dump_medline_text",
    "load_medline_text",
    "parse_medline_text",
    "read_citations_jsonl",
    "stream_medline_records",
    "stream_medline_text",
    "write_citations_jsonl",
]
