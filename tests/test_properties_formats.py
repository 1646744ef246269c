"""Property-based tests for the parsers and formats."""

from __future__ import annotations

import io

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpus.citation import Citation
from repro.corpus.loader import dump_medline_text, load_medline_text
from repro.hierarchy.generator import generate_hierarchy
from repro.hierarchy.mesh_loader import dump_mesh_ascii, load_mesh_ascii
from repro.search.query_language import And, Not, Or, Term, format_query, parse_query


# ---------------------------------------------------------------------------
# Query language: parse/format round trip
# ---------------------------------------------------------------------------
_word = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789+-/", min_size=1, max_size=10
).filter(lambda w: w.upper() not in ("AND", "OR", "NOT") and w.strip("-"))

_phrase_text = st.lists(_word, min_size=1, max_size=3).map(" ".join)


@st.composite
def query_asts(draw, depth: int = 3):
    if depth == 0 or draw(st.booleans()):
        phrase = draw(st.booleans())
        text = draw(_phrase_text) if phrase else draw(_word)
        field = draw(st.sampled_from(["all", "ti", "ab", "mh"]))
        return Term(text=text, field=field, phrase=phrase)
    kind = draw(st.sampled_from(["and", "or", "not"]))
    if kind == "not":
        return Not(draw(query_asts(depth=depth - 1)))
    left = draw(query_asts(depth=depth - 1))
    right = draw(query_asts(depth=depth - 1))
    return And(left, right) if kind == "and" else Or(left, right)


class TestQueryRoundTrip:
    @given(query_asts())
    @settings(max_examples=150, deadline=None)
    def test_parse_format_round_trip(self, ast):
        assert parse_query(format_query(ast)) == ast

    @given(query_asts())
    @settings(max_examples=80, deadline=None)
    def test_format_is_stable(self, ast):
        rendered = format_query(ast)
        assert format_query(parse_query(rendered)) == rendered


# ---------------------------------------------------------------------------
# MEDLINE text round trip
# ---------------------------------------------------------------------------
_title_text = st.lists(
    st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=12),
    min_size=1,
    max_size=12,
).map(" ".join)


@st.composite
def citation_lists(draw):
    n = draw(st.integers(1, 5))
    citations = []
    for i in range(n):
        citations.append(
            Citation(
                pmid=i + 1,
                title=draw(_title_text),
                abstract=draw(_title_text),
                authors=tuple(draw(st.lists(_title_text, max_size=3))),
                year=draw(st.integers(1900, 2008)),
            )
        )
    return citations


class TestMedlineRoundTrip:
    @given(citation_lists())
    @settings(max_examples=50, deadline=None)
    def test_dump_load_preserves_content(self, citations):
        buffer = io.StringIO()
        dump_medline_text(citations, buffer)
        reloaded = load_medline_text(io.StringIO(buffer.getvalue()))
        assert len(reloaded) == len(citations)
        for original, back in zip(citations, reloaded):
            assert back.pmid == original.pmid
            assert back.title.split() == original.title.split()
            assert back.abstract.split() == original.abstract.split()
            assert back.year == original.year


# ---------------------------------------------------------------------------
# MeSH ASCII round trip on random hierarchies
# ---------------------------------------------------------------------------
class TestMeshAsciiRoundTrip:
    @given(st.integers(5, 60), st.integers(0, 50))
    @settings(max_examples=30, deadline=None)
    def test_structure_preserved(self, size, seed):
        original = generate_hierarchy(target_size=size, seed=seed)
        buffer = io.StringIO()
        dump_mesh_ascii(original, buffer)
        reloaded = load_mesh_ascii(io.StringIO(buffer.getvalue()))
        assert len(reloaded) == len(original)
        original_edges = sorted(
            (original.uid(n), original.uid(original.parent(n)))
            for n in range(1, len(original))
        )
        reloaded_edges = sorted(
            (reloaded.uid(n), reloaded.uid(reloaded.parent(n)))
            for n in range(1, len(reloaded))
        )
        assert original_edges == reloaded_edges
