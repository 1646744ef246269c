"""Keyword query engine over the simulated MEDLINE corpus.

This is the server-side piece PubMed provides in the paper's architecture:
given a query it returns the matching citation IDs, ranked.  The simulated
eutils client (``repro.eutils.client``) wraps this engine with the ESearch
wire-level conventions (retstart/retmax paging, counts).

Two query surfaces coexist, as in real PubMed:

* **free-text terms** — conjunctive retrieval over the inverted keyword
  index with TF-IDF ranking (toy-scale corpora only; the index is an
  in-memory structure);
* **field-tagged concept terms** — ``term[mh]`` (or ``term[mh:noexp]``)
  restricts to citations associated with the MeSH concept ``term`` (a
  node id, a concept uid like ``D000123``, or a label — bare or
  double-quoted — when a hierarchy is attached).  These
  resolve through the :class:`~repro.substrate.store.MmapStore`
  boolean-AND path, answered with compressed bitmap intersections —
  the query shape the substrate bench gates at 1M citations.

A query may mix both; the result is the intersection, ranked by the
text score when text terms are present and in ascending-PMID order for
pure concept queries.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.corpus.medline import MedlineDatabase
from repro.hierarchy.concept import ConceptHierarchy
from repro.search.ranking import rank_results
from repro.storage import InvertedIndex
from repro.substrate.builder import medline_store
from repro.substrate.store import MmapStore

__all__ = ["QueryResult", "SearchEngine"]

#: ``term[mh]`` / ``term[mh:noexp]`` — PubMed's MeSH field tags,
#: case-insensitive.  The term is a double-quoted phrase or everything
#: up to the tag, so labels with spaces work either way:
#: ``"Kinase, Alpha (L1-0001)"[mh:noexp]``, ``Kinase, Alpha
#: (L1-0001)[mh]``.  Both tags resolve to the concept's own postings
#: (the substrate stores no subtree explosion).
_MH_RE = re.compile(r'\s*("[^"]*"|[^\[\]"]+?)\s*\[mh(?::noexp)?\]', re.IGNORECASE)


@dataclass(frozen=True)
class QueryResult:
    """Outcome of one keyword query.

    Attributes:
        query: the query string as submitted.
        pmids: matching citation IDs in rank order.
    """

    query: str
    pmids: Tuple[int, ...]

    @property
    def count(self) -> int:
        """Number of matching citations."""
        return len(self.pmids)


class SearchEngine:
    """Conjunctive retrieval: TF-IDF-ranked text plus ``[mh]`` concepts.

    Args:
        store: the corpus :class:`MmapStore`, or a bare
            :class:`MedlineDatabase`, built into an in-memory store over
            the concept ids it uses (max concept id + 1, and at least
            every node of ``hierarchy``).
        index: inverted keyword index for free-text terms; when absent,
            free-text terms raise :class:`ValueError` (a pre-built
            substrate carries no text index — concept queries only).
        hierarchy: resolves uid/label concept terms; node-id terms work
            without it.
    """

    def __init__(
        self,
        store: "MmapStore | MedlineDatabase",
        index: Optional[InvertedIndex] = None,
        hierarchy: Optional[ConceptHierarchy] = None,
    ):
        if isinstance(store, MedlineDatabase):
            concepts = max(
                (max(c.concepts) for c in store.iter_citations() if c.concepts),
                default=-1,
            )
            if hierarchy is not None:
                concepts = max(concepts, len(hierarchy) - 1)
            store = medline_store(store, concepts + 1)
        self._store = store
        self._index = index
        self._hierarchy = hierarchy if hierarchy is not None else store.hierarchy()
        self._years: Optional[Dict[int, int]] = None

    @classmethod
    def from_medline(cls, medline: MedlineDatabase) -> "SearchEngine":
        """Build the text index from scratch over a toy corpus."""
        index = InvertedIndex()
        for citation in medline.iter_citations():
            index.add_document(citation.pmid, citation.searchable_text())
        return cls(medline, index)

    @classmethod
    def from_store(
        cls, store: MmapStore, hierarchy: Optional[ConceptHierarchy] = None
    ) -> "SearchEngine":
        """Concept-query engine over a built store (no text index)."""
        return cls(store, index=None, hierarchy=hierarchy)

    @property
    def store(self) -> MmapStore:
        """The corpus store queries resolve against."""
        return self._store

    # ------------------------------------------------------------------
    def search(self, query: str) -> QueryResult:
        """All citations matching every term, ranked.

        Raises:
            ValueError: free-text terms without a text index, or an
                unresolvable ``[mh]`` term.
        """
        concepts, text = self._parse(query)
        concept_hits: Optional[List[int]] = None
        if concepts is not None:
            concept_hits = [int(p) for p in self._store.boolean_and(concepts)]

        if not text.strip():
            pmids = concept_hits if concept_hits is not None else []
            return QueryResult(query=query, pmids=tuple(pmids))

        if self._index is None:
            raise ValueError(
                "free-text terms need a keyword index; this engine serves "
                "[mh] concept queries only"
            )
        matches = self._index.search(text)
        if concept_hits is not None:
            matches = matches & set(concept_hits)
        ranked = rank_results(self._index, sorted(matches), text, self._year_map())
        return QueryResult(query=query, pmids=tuple(ranked))

    def __len__(self) -> int:
        return len(self._store)

    # ------------------------------------------------------------------
    def _parse(self, query: str) -> Tuple[Optional[List[int]], str]:
        """Split a query into resolved ``[mh]`` concept ids + text rest."""
        concepts: List[int] = []
        seen = False
        for match in _MH_RE.finditer(query):
            seen = True
            concepts.append(self._resolve_concept(match.group(1).strip('"').strip()))
        text = _MH_RE.sub(" ", query)
        return (concepts if seen else None), text

    def _resolve_concept(self, term: str) -> int:
        """Node id for one ``[mh]`` term (id, uid, or label)."""
        if term.isdigit():
            concept = int(term)
            if 0 <= concept < self._store.num_concepts:
                return concept
            raise ValueError("concept id %d outside the corpus universe" % concept)
        if self._hierarchy is not None:
            for lookup in (self._hierarchy.by_uid, self._hierarchy.by_label):
                try:
                    return lookup(term)
                except KeyError:
                    pass
        raise ValueError("unresolvable [mh] term %r" % term)

    def _year_map(self) -> Dict[int, int]:
        """pmid → year for ranking tie-breaks, built on first text query."""
        if self._years is None:
            self._years = dict(
                zip(
                    self._store.pmid_array().tolist(),
                    self._store.year_array().tolist(),
                )
            )
        return self._years
