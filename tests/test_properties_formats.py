"""Property-based tests for the parsers and formats."""

from __future__ import annotations

import io

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpus.citation import Citation
from repro.corpus.loader import dump_medline_text, load_medline_text
from repro.hierarchy.generator import generate_hierarchy
from repro.hierarchy.mesh_loader import dump_mesh_ascii, load_mesh_ascii


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
