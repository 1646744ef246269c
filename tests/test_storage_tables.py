"""Unit tests for the corpus store's table views.

The store built by :meth:`BioNavDatabase.build` holds the three tables of
the off-line pre-processing: the (concept, citation) association, the
citation-major denormalized rows and the per-concept ``LT`` counts.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.corpus.citation import Citation
from repro.corpus.medline import MedlineDatabase
from repro.hierarchy.concept import ConceptHierarchy
from repro.storage.database import BioNavDatabase
from repro.substrate import MmapStore
from tests.oracles.store_reference import annotation_arrays


def flat_hierarchy(size: int) -> ConceptHierarchy:
    """A root with ``size - 1`` children: concept ids ``0 .. size - 1``."""
    return ConceptHierarchy.from_parents(
        [-1] + [0] * (size - 1), ["MeSH"] + ["C%d" % i for i in range(1, size)]
    )


def build(citations, size: int = 10, background=None) -> MmapStore:
    medline = MedlineDatabase(background_counts=background)
    for pmid, concepts in citations:
        medline.add(Citation(pmid=pmid, title="t", index_concepts=tuple(concepts)))
    return BioNavDatabase.build(flat_hierarchy(size), medline).store


def pairs(store: MmapStore):
    """Every (concept, citation) row, in concept then PMID order."""
    return [
        (concept, pmid)
        for concept in range(store.num_concepts)
        for pmid in store.citations_for_concept(concept).tolist()
    ]


@pytest.fixture()
def table() -> MmapStore:
    return build([(100, (1, 2)), (101, (1,)), (102, (3,))])


class TestAssociationTable:
    def test_insert_counts_new_tuples(self):
        store = build([(100, (1, 1))])
        assert pairs(store) == [(1, 100)]  # duplicate tuple kept once
        assert int(store.manifest["pairs"]) == 1

    def test_insert_many_returns_new_count(self):
        store = build([(100, (1, 2, 1))])
        assert int(store.manifest["pairs"]) == 2

    def test_citations_for(self, table):
        assert table.citations_for_concept(1).tolist() == [100, 101]
        assert table.citations_for_concept(9).tolist() == []
        with pytest.raises(IndexError):
            table.citations_for_concept(99)

    def test_concepts_for(self, table):
        assert table.concepts_of(100) == (1, 2)
        with pytest.raises(KeyError):
            table.concepts_of(999)

    def test_concepts_listing(self, table):
        listed = [c for c in range(table.num_concepts) if table.result_count(c)]
        assert listed == [1, 2, 3]

    def test_iter_rows_sorted(self):
        store = build([(102, (3,)), (101, (1,)), (100, (2, 1))])
        assert pairs(store) == [(1, 100), (1, 101), (2, 100), (3, 102)]

    def test_denormalize(self, table):
        assert table.concepts_of(100) == (1, 2)
        assert table.concepts_of(101) == (1,)
        assert len(table) == 3


class TestDenormalizedTable:
    def test_put_get(self):
        store = build([(7, (3, 1, 2))])
        assert store.concepts_of(7) == (1, 2, 3)
        assert store.pmids() == [7]

    def test_get_missing_raises(self):
        store = build([])
        with pytest.raises(KeyError):
            store.concepts_of(1)
        assert store.pmids() == []

    def test_get_many_skips_missing(self):
        store = build([(1, (5,))])
        concepts, offsets, values = annotation_arrays(store, [1, 2])
        assert concepts.tolist() == [5]
        assert values[offsets[0] : offsets[1]].tolist() == [1]

    def test_pmids_sorted(self):
        store = build([(9, (1,)), (3, (1,))])
        assert store.pmids() == [3, 9]


class TestConceptStats:
    def test_set_and_count(self):
        store = build([], background={4: 1000})
        assert store.medline_count(4) == 1000
        assert store.medline_count(5) == 0
        assert store.medline_count(99) == 0
        lt = store.medline_counts(np.arange(store.num_concepts))
        assert int(np.count_nonzero(lt)) == 1

    def test_negative_rejected(self):
        medline = MedlineDatabase()
        with pytest.raises(ValueError):
            medline.set_background_count(4, -1)
        assert medline.background_counts() == {}

    def test_items_sorted(self):
        store = build([], background={9: 1, 2: 3})
        lt = store.medline_counts(np.arange(store.num_concepts))
        items = [(c, int(lt[c])) for c in np.flatnonzero(lt).tolist()]
        assert items == [(2, 3), (9, 1)]
